import random
from itertools import combinations

import pytest

from hrcolor.checker import _first_cover, check_hr
from hrcolor.coloring import Multicoloring, from_class_masks
from hrcolor.constructions import c7_pair
from hrcolor.graph import Graph, VertexSet


def two_k2_coloring():
    return Multicoloring.from_sets(2, [[1], [2], [1], [2]])


def class_masks(kappa):
    """Per-color vertex masks, from the plain color sets."""
    sets = kappa.sets()
    return [
        sum(1 << v for v, s in enumerate(sets) if c in s)
        for c in range(1, kappa.palette_size + 1)
    ]


def random_coloring(rng, n, k):
    return Multicoloring(k, [rng.getrandbits(k) for _ in range(n)])


class TestColorSet:
    """A vertex's color set, read and written through `Multicoloring`."""

    def test_one_based_membership(self):
        kappa = Multicoloring.from_sets(7, [[1, 4]])
        assert kappa.masks == (0b1001,)
        assert kappa.colors_of(0) == (1, 4)
        assert 1 in kappa.colors_of(0) and 2 not in kappa.colors_of(0)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            Multicoloring.from_sets(3, [[0]])
        with pytest.raises(ValueError):
            Multicoloring.from_sets(3, [[4]])

    def test_is_full(self):
        # one vertex holding the whole palette fails the hold test at a = 1
        full = Multicoloring.from_sets(3, [[1, 2, 3]])
        assert check_hr(Graph(1), full, 1) == (False, VertexSet(1, 1))
        assert check_hr(Graph(1), Multicoloring.from_sets(3, [[1, 2]]), 1) == (True, None)


class TestMulticoloring:
    def test_empty_sets_allowed(self):
        kappa = Multicoloring.from_sets(3, [[], [1, 3]])
        assert kappa.colors_of(0) == ()
        assert kappa.colors_of(1) == (1, 3)

    def test_mask_out_of_palette_rejected(self):
        with pytest.raises(ValueError):
            Multicoloring(2, [0b100])


class TestUnionOver:
    """Unions of color sets over vertex sets, as the hold test forms them."""

    def test_four_consecutive_cycle_vertices_have_everything(self):
        sets = c7_pair().coloring.sets()
        for start in range(7):
            quad = [(start + i) % 7 for i in range(4)]
            assert set().union(*(sets[v] for v in quad)) == set(range(1, 8))

    def test_empty_set(self):
        # vertices without colors cover nothing, however many are taken
        assert _first_cover([0, 0, 0, 0], 0b11, 4) is None
        assert _first_cover([], 0b1, 1) is None

    def test_pair(self):
        assert _first_cover(two_k2_coloring().masks, 0b11, 2) == (0, 1)

    def test_distributes_over_union(self):
        rng = random.Random(3)
        for _ in range(200):
            n, k = rng.randint(1, 8), rng.randint(1, 6)
            kappa = random_coloring(rng, n, k)
            s1 = [v for v in range(n) if rng.random() < 0.5]
            s2 = [v for v in range(n) if rng.random() < 0.5]
            both = set().union(*(kappa.colors_of(v) for v in set(s1) | set(s2)))
            assert both == set().union(*(kappa.colors_of(v) for v in s1)) | set().union(
                *(kappa.colors_of(v) for v in s2)
            )
            ored = 0
            for v in set(s1) | set(s2):
                ored |= kappa.masks[v]
            assert both == {c + 1 for c in range(k) if ored >> c & 1}


class TestHasAllColors:
    """Whether some `a` vertices jointly hold every color (the hold test)."""

    def test_no_three_vertices_cover_the_pair_instance(self):
        inst = c7_pair()
        sets = inst.coloring.sets()
        assert all(
            len(set().union(*(sets[v] for v in trio))) < 7
            for trio in combinations(range(inst.graph.n), 3)
        )
        assert check_hr(inst.graph, inst.coloring, 3) == (True, None)

    def test_full_vertex(self):
        kappa = Multicoloring.from_sets(3, [[1, 2, 3], []])
        assert check_hr(Graph(2), kappa, 1) == (False, VertexSet(1, 2))

    def test_all_empty(self):
        kappa = Multicoloring.from_sets(1, [[], [], []])
        assert check_hr(Graph(3), kappa, 3) == (True, None)

    def test_monotone(self):
        # a covering set stays covering when a vertex is added to it
        rng = random.Random(4)
        for _ in range(200):
            n, k = rng.randint(2, 8), rng.randint(1, 5)
            kappa = random_coloring(rng, n, k)
            full = (1 << k) - 1
            a = rng.randint(1, n - 1)
            if _first_cover(kappa.masks, full, a) is not None:
                assert _first_cover(kappa.masks, full, a + 1) is not None


class TestExtendPalette:
    """A color class holding every vertex, built by `from_class_masks`."""

    def test_two_k2(self):
        got = from_class_masks(4, 3, [0b0101, 0b1010, 0b1111])
        assert got.palette_size == 3
        assert got.sets() == ((1, 3), (2, 3), (1, 3), (2, 3))

    def test_all_empty(self):
        got = from_class_masks(2, 2, [0, 0b11])
        assert got.palette_size == 2
        assert got.sets() == ((2,), (2,))

    def test_twice_adds_two_universal_colors(self):
        got = from_class_masks(4, 4, [0b0101, 0b1010, 0b1111, 0b1111])
        assert got.palette_size == 4
        for v in range(4):
            assert 3 in got.colors_of(v) and 4 in got.colors_of(v)

    def test_union_gains_exactly_the_new_color(self):
        rng = random.Random(5)
        for _ in range(200):
            n, k = rng.randint(1, 8), rng.randint(1, 5)
            kappa = random_coloring(rng, n, k)
            ext = from_class_masks(n, k + 1, [*class_masks(kappa), (1 << n) - 1])
            assert ext.masks == tuple(m | 1 << k for m in kappa.masks)


class TestExtendVertex:
    """A vertex outside every class, which gets the empty color set."""

    def test_appends_empty_set(self):
        got = from_class_masks(5, 2, [0b0101, 0b1010])
        assert len(got) == 5
        assert got.sets() == ((1,), (2,), (1,), (2,), ())

    def test_empty_assignment(self):
        got = from_class_masks(1, 2, [0, 0])
        assert len(got) == 1 and got.colors_of(0) == ()


class TestClasses:
    """The per-color view, as the search writes it through `from_class_masks`."""

    def test_two_k2(self):
        assert from_class_masks(4, 2, [0b0101, 0b1010]) == two_k2_coloring()
        assert class_masks(two_k2_coloring()) == [0b0101, 0b1010]

    def test_all_empty(self):
        got = from_class_masks(2, 2, [0, 0])
        assert got == Multicoloring.from_sets(2, [[], []])

    def test_round_trip_random(self):
        rng = random.Random(6)
        for _ in range(300):
            n, k = rng.randint(0, 10), rng.randint(1, 6)
            kappa = random_coloring(rng, n, k)
            assert from_class_masks(n, k, class_masks(kappa)) == kappa


class TestCanonicalForm:
    """Colorings equal up to renaming colors have the same multiset of
    class masks; `from_class_masks` names the colors by class order."""

    def test_color_swap_invariant(self):
        kappa = Multicoloring.from_sets(2, [[1], [2], [1], [2]])
        swapped = Multicoloring.from_sets(2, [[2], [1], [2], [1]])
        assert sorted(class_masks(kappa)) == sorted(class_masks(swapped))
        assert from_class_masks(4, 2, [0b1010, 0b0101]) == swapped

    def test_two_k2_value(self):
        got = from_class_masks(4, 2, sorted(class_masks(two_k2_coloring())))
        assert got.sets() == ((1,), (2,), (1,), (2,))

    def test_random_permutations(self):
        rng = random.Random(7)
        for _ in range(10**4):
            n, k = rng.randint(1, 7), rng.randint(1, 5)
            kappa = random_coloring(rng, n, k)
            perm = list(range(1, k + 1))
            rng.shuffle(perm)
            permuted = Multicoloring.from_sets(
                k, [[perm[c - 1] for c in kappa.colors_of(v)] for v in range(n)]
            )
            assert sorted(class_masks(kappa)) == sorted(class_masks(permuted))
            # class i of kappa is class perm[i] - 1 of the renamed coloring
            renamed = [0] * k
            for i, m in enumerate(class_masks(kappa)):
                renamed[perm[i] - 1] = m
            assert from_class_masks(n, k, renamed) == permuted
