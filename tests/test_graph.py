import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrcolor.graph import (
    Graph,
    VertexSet,
    complete,
    component_masks,
    cycle,
    disjoint_union,
    from_pair_bits,
    path,
)

from oracles import naive_components


def vs(vertices, n):
    return VertexSet.from_vertices(vertices, n)


def components(g, removed=0):
    """Components of g minus the `removed` mask, as vertex lists."""
    survivors = g.full_mask & ~removed
    return [list(VertexSet(m, g.n)) for m in component_masks(g.closed_masks, survivors)]


def degree(g, u):
    return g.closed_masks[u].bit_count() - 1


class TestVertexSet:
    def test_algebra_is_exact(self):
        a = vs([0, 2, 5], 8)
        assert a.mask == 0b100101 and a == VertexSet(0b100101, 8)
        assert list(a) == [0, 2, 5] and a.vertices() == (0, 2, 5)
        assert len(a) == 3 and 5 in a and 1 not in a and 8 not in a and -1 not in a
        assert not vs([], 8) and repr(a) == "VertexSet({0, 2, 5}, capacity=8)"

    def test_subset_and_order(self):
        assert sorted([vs([1, 3], 4), vs([0, 2], 4)], key=lambda s: s.mask) == [
            vs([0, 2], 4),
            vs([1, 3], 4),
        ]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            vs([4], 4)
        with pytest.raises(ValueError):
            VertexSet(1 << 4, 4)

    def test_mixed_universes_rejected(self):
        with pytest.raises(ValueError, match="capacity does not match"):
            cycle(4).closed_neighborhood_set(vs([0], 3))

    def test_large_capacity(self):
        big = vs([0, 100, 199], 200)
        assert list(big) == [0, 100, 199] and len(big) == 3
        assert big.mask == 1 | 1 << 100 | 1 << 199


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_edge_both_orders(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_adjacency_is_symmetric(self):
        g = Graph(4, [(2, 0), (1, 3)])
        assert g.closed_masks == (0b0101, 0b1010, 0b0101, 0b1010)
        assert g.edges() == ((0, 2), (1, 3))


class TestBuilders:
    def test_cycle(self):
        g = cycle(7)
        assert g.n == 7 and g.num_edges() == 7
        assert all(degree(g, u) == 2 for u in range(7))

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_path(self):
        g = path(5)
        assert g.n == 5 and g.num_edges() == 4
        assert degree(g, 0) == 1 and degree(g, 4) == 1
        assert path(1).num_edges() == 0
        assert path(0).n == 0

    def test_complete(self):
        assert complete(4).num_edges() == 6
        assert complete(1).num_edges() == 0

    @pytest.mark.parametrize("n", range(9))
    def test_mask_builders_match_checked_edge_lists(self, n):
        # the builders write closed masks directly; Graph(n, edges) checks
        # and writes every edge of the same shape one at a time
        line = [(i, i + 1) for i in range(n - 1)]
        assert path(n) == Graph(n, line)
        assert complete(n) == Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        if n >= 3:
            assert cycle(n) == Graph(n, line + [(0, n - 1)])


class TestClosedNeighborhood:
    def test_cycle_vertex(self):
        g = cycle(7)
        assert list(VertexSet(g.closed_masks[0], 7)) == [0, 1, 6]

    def test_edge_vertex(self):
        g = Graph(2, [(0, 1)])
        assert list(VertexSet(g.closed_masks[1], 2)) == [0, 1]

    def test_isolated_vertex(self):
        g = Graph(3, [(0, 1)])
        assert g.closed_masks[2] == 0b100

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cycle(3).closed_neighborhood_set(vs([3], 4))

    def test_set_version(self):
        g = cycle(7)
        got = g.closed_neighborhood_set(vs([0, 3], 7))
        assert list(got) == [0, 1, 2, 3, 4, 6]

    def test_set_version_empty(self):
        g = cycle(5)
        assert not g.closed_neighborhood_set(vs([], 5))

    def test_set_version_single(self):
        g = Graph(2, [(0, 1)])
        assert list(g.closed_neighborhood_set(vs([0], 2))) == [0, 1]


class TestSurvivingComponents:
    def test_cycle_minus_closed_neighborhood(self):
        g = cycle(7)
        assert components(g, g.closed_masks[0]) == [[2, 3, 4, 5]]

    def test_everything_removed(self):
        g = complete(3)
        assert components(g, 0b111) == []

    def test_two_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        removed = g.closed_neighborhood_set(vs([0], 4)).mask
        assert components(g, removed) == [[2, 3]]

    def test_component_order_is_ascending_minimum(self):
        g = Graph(6, [(0, 5), (1, 2)])
        comps = components(g)
        mins = [min(c) for c in comps]
        assert mins == sorted(mins)


class TestTransforms:
    def test_disjoint_union_two_cycles(self):
        g = disjoint_union(cycle(7), cycle(7))
        assert g.n == 14 and g.num_edges() == 14
        assert len(components(g)) == 2

    def test_disjoint_union_k2(self):
        g = disjoint_union(Graph(2, [(0, 1)]), Graph(2, [(0, 1)]))
        assert g == Graph(4, [(0, 1), (2, 3)])

    def test_disjoint_union_identity(self):
        g = cycle(5)
        assert disjoint_union(g, Graph(0)) == g

    def test_disjoint_union_matches_the_shifted_edge_list(self):
        rng = random.Random(5)
        for _ in range(200):
            n1, n2 = rng.randint(0, 6), rng.randint(0, 6)
            e1 = [(u, v) for u in range(n1) for v in range(u + 1, n1) if rng.random() < 0.5]
            e2 = [(u, v) for u in range(n2) for v in range(u + 1, n2) if rng.random() < 0.5]
            g = disjoint_union(Graph(n1, e1), Graph(n2, e2))
            assert g == Graph(n1 + n2, e1 + [(u + n1, v + n1) for u, v in e2])

    def test_add_isolated_vertex(self):
        g = disjoint_union(Graph(2, [(0, 1)]), Graph(1))
        assert g.n == 3 and g.num_edges() == 1 and degree(g, 2) == 0
        assert g == Graph(3, [(0, 1)])
        assert disjoint_union(Graph(0), Graph(1)).n == 1

    def test_induced_subgraph(self):
        # the components of the subgraph induced on the survivors {0, 1, 3}
        g = cycle(5)
        assert component_masks(g.closed_masks, 0b01011) == [0b00011, 0b01000]


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(n, chosen)


@given(graphs())
def test_closed_neighborhood_size(g):
    for u in range(g.n):
        m = g.closed_masks[u]
        assert m >> u & 1
        assert m.bit_count() == sum(u in e for e in g.edges()) + 1


@given(graphs(), st.data())
def test_closed_neighborhood_monotone(g, data):
    universe = list(range(g.n))
    b = data.draw(st.lists(st.sampled_from(universe), unique=True) if universe else st.just([]))
    a = data.draw(st.lists(st.sampled_from(b), unique=True) if b else st.just([]))
    ma = g.closed_neighborhood_set(vs(a, g.n))
    mb = g.closed_neighborhood_set(vs(b, g.n))
    assert ma.mask & ~mb.mask == 0


@given(graphs(), st.data())
@settings(max_examples=150)
def test_components_partition_and_connectivity(g, data):
    universe = list(range(g.n))
    removed = data.draw(
        st.lists(st.sampled_from(universe), unique=True) if universe else st.just([])
    )
    removed_mask = vs(removed, g.n).mask
    comps = component_masks(g.closed_masks, g.full_mask & ~removed_mask)
    union = 0
    for c in comps:
        assert union & c == 0
        union |= c
    assert union == g.full_mask & ~removed_mask
    # no edge joins two distinct components
    comp_of = {v: i for i, c in enumerate(comps) for v in VertexSet(c, g.n)}
    for u, v in g.edges():
        if u in comp_of and v in comp_of:
            assert comp_of[u] == comp_of[v]


@given(graphs(), graphs())
def test_disjoint_union_component_count(g1, g2):
    u = disjoint_union(g1, g2)
    assert len(components(u)) == len(components(g1)) + len(components(g2))


def test_components_match_naive_flood_fill():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph(n, edges)
        removed = [v for v in range(n) if rng.random() < 0.3]
        got = components(g, vs(removed, n).mask)
        removed_set = set(removed)
        survivors = [v for v in range(n) if v not in removed_set]
        sub_edges = [e for e in edges if e[0] not in removed_set and e[1] not in removed_set]
        expected = naive_components(survivors, sub_edges)
        assert [set(c) for c in got] == expected


@st.composite
def listed_edges(draw, max_n=9):
    """A random simple graph as (n, its edge set as u < v pairs, two listings
    of those edges, each shuffled with every pair randomly reversed)."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))

    def listing():
        flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
        oriented = [(v, u) if f else (u, v) for (u, v), f in zip(chosen, flips)]
        return draw(st.permutations(oriented))

    return n, set(chosen), listing(), listing()


@given(listed_edges())
@settings(max_examples=200)
def test_derived_views_match_a_set_model(case):
    n, model, first, second = case
    g = Graph(n, first)
    nbrs = {u: {v for e in model if u in e for v in e if v != u} for u in range(n)}
    assert g.edges() == tuple(sorted(model))
    assert g.num_edges() == len(model)
    for u in range(n):
        assert g.closed_masks[u] == sum(1 << v for v in nbrs[u] | {u})
    h = Graph(n, second)
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    assert g != Graph(n + 1, first)


@given(listed_edges(), st.data())
def test_bad_pairs_are_rejected_anywhere_in_the_list(case, data):
    n, model, first, _ = case
    bad = [(-1, 0), (n, 0), (0, n)]
    if n:
        u = data.draw(st.integers(min_value=0, max_value=n - 1))
        bad.append((u, u))
    if first:
        u, v = data.draw(st.sampled_from(first))
        bad.append((v, u))
    pair = data.draw(st.sampled_from(bad))
    at = data.draw(st.integers(min_value=0, max_value=len(first)))
    with pytest.raises(ValueError):
        Graph(n, first[:at] + [pair] + first[at:])


def pair_filter(n, bits):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def test_from_pair_bits_matches_the_pair_filter():
    for n in range(5):
        for bits in range(1 << n * (n - 1) // 2):
            assert from_pair_bits(n, bits) == pair_filter(n, bits)
    rng = random.Random(3)
    for n in range(5, 17):
        for _ in range(20):
            bits = rng.getrandbits(n * (n - 1) // 2)
            g, want = from_pair_bits(n, bits), pair_filter(n, bits)
            assert g == want and hash(g) == hash(want)
            assert g.edges() == want.edges() and g.closed_masks == want.closed_masks


def test_from_pair_bits_on_zero_and_one_vertex():
    assert from_pair_bits(0, 0) == Graph(0) and from_pair_bits(0, 0).edges() == ()
    assert from_pair_bits(1, 0) == Graph(1) and from_pair_bits(1, 0).closed_masks == (1,)


@pytest.mark.parametrize(
    "n, bits",
    [(3, 8), (4, -1), (0, 1), (0, -1), (1, 1), (1, 2), (1, -1),
     pytest.param(16, 1 << 120, id="16-2**120"),
     pytest.param(16, -1 << 119, id="16--2**119")],
)
def test_from_pair_bits_rejects_bits_beyond_the_pairs(n, bits):
    with pytest.raises(ValueError, match="bits must lie"):
        from_pair_bits(n, bits)


# n*(n-1)/2 is 1 at n = -1 and 3 at n = -2, so these bits would pass a
# width check alone
@pytest.mark.parametrize("n, bits", [(-1, 0), (-1, 1), (-2, 0), (-2, 7), (-5, 0)])
def test_from_pair_bits_rejects_negative_vertex_counts(n, bits):
    with pytest.raises(ValueError, match="non-negative"):
        from_pair_bits(n, bits)
