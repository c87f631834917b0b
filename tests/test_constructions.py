from itertools import combinations

import pytest

from hrcolor import constructions
from hrcolor.checker import check_highly
from hrcolor.constructions import c7_pair, c8c8p5, catalog, clique_partition, instance
from hrcolor.graph import MAX_VERTICES, Graph

from oracles import naive_components


class TestCliquePartition:
    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
    def test_shape(self, a):
        inst = clique_partition(a)
        size = a + 1
        assert inst.graph.n == size * size
        assert inst.coloring.palette_size == size
        assert inst.attackers == a
        # one clique of a+1 vertices per block, nothing across blocks
        assert inst.graph.num_edges() == size * (size * (size - 1) // 2)
        comps = naive_components(list(range(inst.graph.n)), list(inst.graph.edges()))
        assert len(comps) == size
        assert all(len(c) == size for c in comps)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_each_color_class_has_one_vertex_per_clique(self, a):
        inst = clique_partition(a)
        size = a + 1
        colors = inst.coloring.sets()
        for color in range(1, size + 1):
            cls = [v for v in range(inst.graph.n) if color in colors[v]]
            assert len(cls) == size
            assert sorted(v // size for v in cls) == list(range(size))

    @pytest.mark.parametrize("a", range(1, 9))
    def test_graph_matches_a_checked_edge_list(self, a):
        size = a + 1
        edges = [
            (b * size + i, b * size + j)
            for b in range(size) for i in range(size) for j in range(i + 1, size)
        ]
        assert clique_partition(a).graph == Graph(size * size, edges)

    def test_smallest_member_is_two_k2(self):
        inst = clique_partition(1)
        assert inst.graph.edges() == ((0, 1), (2, 3))
        assert inst.coloring.sets() == ((1,), (2,), (1,), (2,))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            clique_partition(0)

    @pytest.mark.parametrize("a", [64, 300, 10**12])
    def test_refuses_more_vertices_than_a_document_may_declare_before_building(
        self, a, monkeypatch
    ):
        def no_build(*args):
            raise AssertionError("built a graph before refusing")

        monkeypatch.setattr(constructions, "complete", no_build)
        monkeypatch.setattr(constructions, "disjoint_union", no_build)
        with pytest.raises(ValueError, match=f"over the limit of {MAX_VERTICES}"):
            clique_partition(a)


class TestC7Pair:
    def test_metadata(self):
        inst = c7_pair()
        assert inst.name == "paper-14"
        assert (inst.attackers, inst.palette_size, inst.graph.n) == (3, 7, 14)

    def test_color_formula(self):
        inst = c7_pair()
        # position i on either cycle holds {i, i+3 wrapped into 1..7}
        assert inst.coloring.colors_of(7) == (1, 4)   # first vertex, second cycle
        assert inst.coloring.colors_of(4) == (1, 5)   # position 5: 5+3 wraps to 1
        assert inst.coloring.colors_of(0) == (1, 4)
        for v in range(14):
            assert len(inst.coloring.colors_of(v)) == 2

    def test_no_three_vertices_reach_seven_colors(self):
        colors = c7_pair().coloring.sets()
        for trio in combinations(range(14), 3):
            got = set().union(*(colors[v] for v in trio))
            assert len(got) <= 6


class TestC8C8P5:
    def test_metadata(self):
        inst = c8c8p5()
        assert inst.name == "paper-21"
        assert (inst.attackers, inst.palette_size, inst.graph.n) == (4, 10, 21)

    def test_color_formula(self):
        inst = c8c8p5()
        assert inst.coloring.colors_of(0) == (1, 4, 9)    # cycle 1, position 1
        assert inst.coloring.colors_of(13) == (1, 6, 10)  # cycle 2, position 6: 6+3 wraps to 1
        assert inst.coloring.colors_of(20) == (5, 8, 9)   # path, position 5

    def test_every_vertex_has_three_colors_two_of_them_base(self):
        inst = c8c8p5()
        for v in range(21):
            cs = inst.coloring.colors_of(v)
            assert len(cs) == 3
            assert sum(1 for c in cs if c <= 8) == 2
            assert sum(1 for c in cs if c >= 9) == 1

    def test_cycle_distance_three_shares_a_base_color(self):
        inst = c8c8p5()
        for offset in (0, 8):
            for j in range(8):
                a = set(inst.coloring.colors_of(offset + j)) & set(range(1, 9))
                b = set(inst.coloring.colors_of(offset + (j + 3) % 8)) & set(range(1, 9))
                assert a & b


class TestCatalog:
    def test_contents(self):
        entries = catalog()
        names = [e.name for e in entries]
        assert names == [
            "clique-partition:1",
            "clique-partition:2",
            "clique-partition:3",
            "clique-partition:4",
            "clique-partition:5",
            "paper-14",
            "paper-21",
        ]
        params = {(e.attackers, e.palette_size, e.graph.n) for e in entries}
        assert (3, 7, 14) in params
        assert (4, 10, 21) in params

    def test_small_entries_certify(self):
        # the expensive entries are certified by the acceptance suite
        for inst in (clique_partition(1), clique_partition(2), clique_partition(3), c7_pair()):
            rep = check_highly(inst.graph, inst.coloring, inst.attackers)
            assert rep.highly_resistant, inst.name


class TestLookup:
    def test_by_name(self):
        assert instance("paper-14").graph.n == 14
        assert instance("paper-21").graph.n == 21
        assert instance("clique-partition:4").graph.n == 25

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="valid families"):
            instance("paper-9")

    def test_bad_parameter(self):
        with pytest.raises(ValueError):
            instance("clique-partition:x")
        with pytest.raises(ValueError):
            instance("clique-partition:0")

    @pytest.mark.parametrize("arg", ["1_0", " 2", "2 ", "+2", "02", "00", "\u0663", "", "2.0"])
    def test_parameter_must_be_the_name_it_builds(self, arg):
        # int() reads all but the last two as integers, and the built
        # instance would be named clique-partition:<int(arg)>
        with pytest.raises(ValueError, match="bad clique-partition parameter"):
            instance(f"clique-partition:{arg}")

    @pytest.mark.parametrize("a", [1, 2, 10])
    def test_parameter_round_trips_through_the_name(self, a):
        assert instance(f"clique-partition:{a}").name == f"clique-partition:{a}"
