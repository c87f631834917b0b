"""Independent reference implementations used as test oracles.

Everything here works on plain sets, dicts, and lists: explicit subgraph
rebuilds, dictionary flood fills, no bit masks, no early exits. The point
is to share nothing with the optimized code paths under test.

The one early exit is `naive_check_hr`'s return at its first covering set.
It scans in lexicographic order, so that set is the witness a full scan
would keep, and a passing scan still reads every set; it spares reading
the millions of sets after a witness on the catalog's large instances.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import Iterator


def naive_components(vertices: list[int], edges: list[tuple[int, int]]) -> list[set[int]]:
    """Connected components via dictionary flood fill, ascending by minimum."""
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[int] = set()
    comps: list[set[int]] = []
    for v in sorted(vertices):
        if v in seen:
            continue
        comp = set()
        stack = [v]
        while stack:
            w = stack.pop()
            if w in comp:
                continue
            comp.add(w)
            stack.extend(adj[w] - comp)
        seen |= comp
        comps.append(comp)
    return comps


def _attacked(n: int, edges: list[tuple[int, int]], attack: tuple[int, ...]):
    """Survivor vertices and rebuilt edge list after removing the attack's
    closed neighborhood."""
    removed = set(attack)
    for u, v in edges:
        if u in attack:
            removed.add(v)
        if v in attack:
            removed.add(u)
    survivors = [v for v in range(n) if v not in removed]
    sub_edges = [(u, v) for u, v in edges if u not in removed and v not in removed]
    return survivors, sub_edges


def naive_check_hr(
    n: int, edges: list[tuple[int, int]], k: int, colors: list[set[int]], a: int
) -> tuple[bool, tuple[int, ...] | None]:
    palette = set(range(1, k + 1))
    for attack in combinations(range(n), a):
        held: set[int] = set()
        for u in attack:
            held = held | colors[u]
        if held == palette:
            return False, attack
    return True, None


def naive_check_resistant(
    n: int, edges: list[tuple[int, int]], k: int, colors: list[set[int]], a: int
) -> tuple[bool, tuple[int, ...] | None]:
    palette = set(range(1, k + 1))
    witness = None
    for attack in combinations(range(n), a):
        survivors, sub_edges = _attacked(n, edges, attack)
        served = False
        for comp in naive_components(survivors, sub_edges):
            held: set[int] = set()
            for u in comp:
                held = held | colors[u]
            if held == palette:
                served = True
        if not served and witness is None:
            witness = attack
    return witness is None, witness


def raw_search_exists(n: int, edges: list[tuple[int, int]], a: int, k: int):
    """Brute-force existence over all (2^k)^n colorings, no symmetry breaking.

    Attack components come from the naive flood fill; per-coloring checks
    use integer masks for speed, which does not affect the enumeration.
    Returns a witness as a list of per-vertex masks, or None.
    """
    palette_full = (1 << k) - 1
    attack_comps: list[list[int]] = []
    for attack in combinations(range(n), a):
        survivors, sub_edges = _attacked(n, edges, attack)
        comps = naive_components(survivors, sub_edges)
        attack_comps.append([sum(1 << v for v in comp) for comp in comps])
    for assignment in product(range(1 << k), repeat=n):
        covered = False
        for attack in combinations(range(n), a):
            cm = 0
            for u in attack:
                cm |= assignment[u]
            if cm == palette_full:
                covered = True
                break
        if covered:
            continue
        resistant = True
        for comps in attack_comps:
            served = False
            for comp in comps:
                cu = 0
                m = comp
                while m:
                    b = m & -m
                    cu |= assignment[b.bit_length() - 1]
                    m ^= b
                if cu == palette_full:
                    served = True
                    break
            if not served:
                resistant = False
                break
        if resistant:
            return list(assignment)
    return None


def canonical_class_sequences(
    num_vertices: int, palette_size: int
) -> Iterator[tuple[int, ...]]:
    """All nondecreasing length-k sequences of class masks over 2^n values,
    in lexicographic order.

    Yields exactly one representative per size-k multiset of vertex subsets,
    comb(2^n + k - 1, k) sequences in total. A class mask names a vertex
    subset as an integer, the only place masks appear here besides the raw
    search's per-coloring checks; the enumeration is the reference for the
    order in which the search visits colorings.
    """
    limit = 1 << num_vertices
    seq: list[int] = []

    def rec(lo: int) -> Iterator[tuple[int, ...]]:
        if len(seq) == palette_size:
            yield tuple(seq)
            return
        for m in range(lo, limit):
            seq.append(m)
            yield from rec(m)
            seq.pop()

    yield from rec(0)


def first_canonical_coloring(
    n: int, edges: list[tuple[int, int]], a: int, k: int
) -> tuple[int, ...] | None:
    """The first sequence of `canonical_class_sequences(n, k)` with no empty
    class whose coloring (color i+1 on the vertices of class i) both naive
    checkers accept at attack size a, or None when there is none."""
    for seq in canonical_class_sequences(n, k):
        if 0 in seq:
            continue
        colors = [{i + 1 for i, c in enumerate(seq) if c >> v & 1} for v in range(n)]
        if (naive_check_hr(n, edges, k, colors, a)[0]
                and naive_check_resistant(n, edges, k, colors, a)[0]):
            return seq
    return None


def random_edges(rng: random.Random, n: int, p: float = 0.5) -> list[tuple[int, int]]:
    return [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]


def random_color_sets(
    rng: random.Random, n: int, k: int, p: float = 0.5
) -> list[set[int]]:
    return [
        {c for c in range(1, k + 1) if rng.random() < p} for _ in range(n)
    ]
