"""Simple undirected graphs with bit-mask vertex sets.

Vertices are 0-based indices. Vertex subsets are stored as integer bit
masks, which are not capped at machine word size.

A `Graph` stores one thing per vertex: its closed neighborhood N[u] as a
bit mask, the form every attack reads (an attack by A removes N[A]). The
edge list and edge count are derived from these masks on request.
`Graph(n, edges)` checks every edge it is given; `from_pair_bits` writes
the masks straight from a bit string over the pairs, whose fixed layout
cannot name a bad edge, so it checks only the vertex count and the width
of the bits. The codec's decoders likewise write each edge into the
masks as they check it, and the shape builders (`path`, `cycle`,
`complete`, `disjoint_union`) write masks fixed by the shape, so that a
large construction costs time linear in its masks.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .record import Record

#: Largest vertex count a document may declare or a construction may build.
#: Decoding a graph allocates per-vertex structures before any edge is read,
#: so the codec refuses a larger count up front (code "too-large"), and
#: `constructions` refuses to build what the codec would refuse to read.
MAX_VERTICES = 4096


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a non-negative mask, in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class VertexSet(Record):
    """Immutable subset of the vertices 0..capacity-1, backed by a bit mask."""

    mask: int
    capacity: int

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")
        if self.mask < 0 or self.mask >> self.capacity:
            raise ValueError(
                f"mask {self.mask:#x} has members outside 0..{self.capacity - 1}"
            )

    @classmethod
    def from_vertices(cls, vertices: Iterable[int], capacity: int) -> "VertexSet":
        mask = 0
        for v in vertices:
            if not 0 <= v < capacity:
                raise ValueError(f"vertex {v} out of range 0..{capacity - 1}")
            mask |= 1 << v
        return cls(mask, capacity)

    def vertices(self) -> tuple[int, ...]:
        return tuple(self)

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.capacity and bool(self.mask >> v & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __repr__(self) -> str:
        inner = ", ".join(str(v) for v in self)
        return f"VertexSet({{{inner}}}, capacity={self.capacity})"


def component_masks(closed: tuple[int, ...], survivors: int) -> list[int]:
    """Connected components of the subgraph induced on the `survivors` mask,
    as bit masks in ascending order of their smallest vertex.

    `closed` holds each vertex's closed neighborhood as a bit mask.
    """
    out: list[int] = []
    rem = survivors
    while rem:
        frontier = rem & -rem
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                nxt |= closed[b.bit_length() - 1]
                f ^= b
            frontier = nxt & survivors & ~comp
        out.append(comp)
        rem &= ~comp
    return out


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Self-loops and repeated edges are rejected at construction time.
    """

    __slots__ = ("n", "_closed")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        closed = [1 << u for u in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if closed[u] >> v & 1:
                raise ValueError(f"duplicate edge ({min(u, v)},{max(u, v)})")
            closed[u] |= 1 << v
            closed[v] |= 1 << u
        self.n = n
        self._closed = tuple(closed)

    @classmethod
    def _from_closed(cls, n: int, closed: tuple[int, ...]) -> "Graph":
        """A graph from masks already known to be valid closed
        neighborhoods on n vertices; nothing is checked.

        Its callers build the masks under their own checks:
        `from_pair_bits`, whose pair layout cannot name a bad edge, the
        codec's decoders, which check each edge as they write it in, and
        the shape builders (`path`, `cycle`, `complete`,
        `disjoint_union`), whose masks are fixed by the shape.
        """
        g = object.__new__(cls)
        g.n = n
        g._closed = closed
        return g

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (u, v) pairs with u < v, sorted."""
        return tuple(
            (u, v) for u, m in enumerate(self._closed) for v in _bits(m & (-2 << u))
        )

    def num_edges(self) -> int:
        return (sum(m.bit_count() for m in self._closed) - self.n) // 2

    @property
    def closed_masks(self) -> tuple[int, ...]:
        """Per-vertex closed neighborhoods as raw bit masks."""
        return self._closed

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def closed_neighborhood_set(self, vertices: VertexSet) -> VertexSet:
        """Union of closed neighborhoods over the given set; empty for the empty set."""
        if vertices.capacity != self.n:
            raise ValueError("vertex set capacity does not match graph size")
        m = 0
        for u in vertices:
            m |= self._closed[u]
        return VertexSet(m, self.n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._closed == other._closed

    def __hash__(self) -> int:
        return hash(self._closed)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def from_pair_bits(n: int, bits: int) -> Graph:
    """The labeled graph on n vertices whose edges are the pairs u < v, taken
    in lexicographic order, at the set bits of `bits`; so bits in
    0..2**C(n,2)-1 name every labeled graph on n vertices once.

    For each u the pairs (u, v), v > u, form one contiguous run of n-1-u
    bits, so u's higher neighbors take one shift and one mask of `bits`;
    each edge then costs one more OR to mirror it into its higher end's
    mask.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    width = n * (n - 1) // 2
    if bits < 0 or bits >> width:
        raise ValueError(f"bits must lie in 0..2**{width}-1")
    closed = [1 << u for u in range(n)]
    for u in range(n - 1):
        run = n - 1 - u
        higher = (bits & ((1 << run) - 1)) << (u + 1)
        bits >>= run
        closed[u] |= higher
        bu = 1 << u
        while higher:
            b = higher & -higher
            closed[b.bit_length() - 1] |= bu
            higher ^= b
    return Graph._from_closed(n, tuple(closed))


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices, 0-1-...-(n-1)-0."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    closed = [*path(n).closed_masks]
    closed[0] |= 1 << (n - 1)
    closed[n - 1] |= 1
    return Graph._from_closed(n, tuple(closed))


def path(n: int) -> Graph:
    """Path on n vertices in index order."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    # vertex u's closed neighborhood is u-1, u, u+1, clipped to 0..n-1
    full = (1 << n) - 1
    return Graph._from_closed(n, tuple((7 << u >> 1) & full for u in range(n)))


def complete(n: int) -> Graph:
    """Complete graph on n vertices."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return Graph._from_closed(n, ((1 << n) - 1,) * n)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; vertices of g2 are shifted up by g1.n."""
    shift = g1.n
    closed = g1.closed_masks + tuple(m << shift for m in g2.closed_masks)
    return Graph._from_closed(g1.n + g2.n, closed)

