"""Bundled colored instances that realize the known extremal parameters.

Every instance here passes the exhaustive checker at its stated attack
size; the test suite re-certifies all of them.
"""

from __future__ import annotations

from .coloring import Multicoloring
from .graph import MAX_VERTICES, Graph, complete, cycle, disjoint_union, path
from .record import Record


class ColoredInstance(Record):
    """A graph, a multicoloring of it, and the attack size it is built for."""

    name: str
    graph: Graph
    coloring: Multicoloring
    attackers: int | None

    def __post_init__(self) -> None:
        if len(self.coloring) != self.graph.n:
            raise ValueError("coloring length does not match graph size")
        if self.attackers is not None and self.attackers < 1:
            raise ValueError("attack size must be positive")

    @property
    def palette_size(self) -> int:
        return self.coloring.palette_size


def _wrap(x: int, m: int) -> int:
    """Map x into the 1-based residue range 1..m."""
    return (x - 1) % m + 1


def clique_partition(a: int) -> ColoredInstance:
    """a+1 disjoint complete graphs on a+1 vertices, colored one color per
    clique position.

    Any attack of `a` vertices wipes out at most `a` cliques and an intact
    clique holds all a+1 colors, while `a` vertices carry at most `a`
    distinct singleton colors, so the instance is highly a-resistant with
    n = (a+1)^2 vertices and k = a+1 colors. An a with n above
    `MAX_VERTICES` is refused before anything is built, since the codec
    would refuse the instance's document.
    """
    if a < 1:
        raise ValueError("attack size must be at least 1")
    if (a + 1) ** 2 > MAX_VERTICES:
        raise ValueError(
            f"clique-partition:{a} has {(a + 1) ** 2} vertices, over the limit "
            f"of {MAX_VERTICES}"
        )
    size = a + 1
    g = complete(size)
    for _ in range(a):
        g = disjoint_union(g, complete(size))
    sets = [[pos + 1] for _ in range(size) for pos in range(size)]
    kappa = Multicoloring.from_sets(size, sets)
    return ColoredInstance(
        name=f"clique-partition:{a}", graph=g, coloring=kappa, attackers=a
    )


def c7_pair() -> ColoredInstance:
    """Two disjoint 7-cycles, 7 colors, built for 3 attackers.

    Position i (1-based) on each cycle takes the color pair {i, i+3} with
    the second entry wrapped into 1..7. Every vertex holds exactly two
    colors, so no 3 vertices reach all 7; any 3 attackers leave one cycle
    with at most one hit, and 4 consecutive survivors there cover 1..7.
    """
    g = disjoint_union(cycle(7), cycle(7))
    sets = []
    for _ in range(2):
        for i in range(1, 8):
            sets.append([i, _wrap(i + 3, 7)])
    kappa = Multicoloring.from_sets(7, sets)
    return ColoredInstance(name="paper-14", graph=g, coloring=kappa, attackers=3)


def c8c8p5() -> ColoredInstance:
    """Two disjoint 8-cycles plus a 5-path, 10 colors, built for 4 attackers.

    Position j takes {j, j+3} wrapped into 1..8, plus color 9 on odd
    positions and 10 on even ones. The 5-path alone covers all 10 colors,
    and so does any 8-cycle minus one closed neighborhood.
    """
    g = disjoint_union(disjoint_union(cycle(8), cycle(8)), path(5))
    sets = []
    for length in (8, 8, 5):
        for j in range(1, length + 1):
            parity_color = 9 if j % 2 == 1 else 10
            sets.append(sorted({j, _wrap(j + 3, 8), parity_color}))
    kappa = Multicoloring.from_sets(10, sets)
    return ColoredInstance(name="paper-21", graph=g, coloring=kappa, attackers=4)


def catalog() -> list[ColoredInstance]:
    """All named instances: clique partitions for a = 1..5 plus the two
    cycle-based constructions."""
    out = [clique_partition(a) for a in range(1, 6)]
    out.append(c7_pair())
    out.append(c8c8p5())
    return out


_FIXED_FAMILIES = {
    "paper-14": c7_pair,
    "paper-21": c8c8p5,
}

FAMILY_NAMES = ("clique-partition:<a>", "paper-14", "paper-21")


def instance(name: str) -> ColoredInstance:
    """Look up a construction by its stable name.

    Accepts "clique-partition:<a>" with a >= 1, "paper-14", or "paper-21".
    """
    if name in _FIXED_FAMILIES:
        return _FIXED_FAMILIES[name]()
    if name.startswith("clique-partition:"):
        arg = name.split(":", 1)[1]
        try:
            a = int(arg)
        except ValueError:
            raise ValueError(
                f"bad clique-partition parameter {arg!r}; expected an integer"
            ) from None
        return clique_partition(a)
    raise ValueError(
        f"unknown family {name!r}; valid families: {', '.join(FAMILY_NAMES)}"
    )
