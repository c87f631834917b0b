import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrcolor.checker import check_highly
from hrcolor.codec import (
    MAX_COLORS,
    MAX_VERTICES,
    CodecError,
    decode_coloring,
    decode_edge_list,
    decode_instance,
    encode_instance,
)
from hrcolor.coloring import Multicoloring
from hrcolor.constructions import ColoredInstance, c7_pair, c8c8p5, catalog, clique_partition
from hrcolor.graph import Graph

from oracles import random_edges


class TestEncode:
    def test_smallest_instance_fields(self):
        text = encode_instance(clique_partition(1))
        assert '"n": 4' in text
        assert '"colors": [[1], [2], [1], [2]]' in text
        assert text.startswith("#")
        assert text.endswith("\n") and "\r" not in text

    def test_pair_instance_fields(self):
        text = encode_instance(c7_pair())
        assert '"k": 7' in text
        assert "[1, 4]" in text

    def test_key_order_is_fixed(self):
        text = encode_instance(c7_pair())
        keys = [line.split(":")[0].strip('"') for line in text.splitlines() if line.startswith('"')]
        assert keys == ["name", "n", "edges", "k", "attackers", "colors"]

    def test_optional_fields_omitted(self):
        inst = ColoredInstance(
            name=None,
            graph=Graph(1),
            coloring=Multicoloring.from_sets(1, [[1]]),
            attackers=None,
        )
        text = encode_instance(inst)
        assert '"name"' not in text and '"attackers"' not in text

    def test_byte_stable(self):
        for inst in catalog():
            assert encode_instance(inst) == encode_instance(inst)

    def test_encode_decode_encode_is_identity(self):
        for inst in catalog():
            text = encode_instance(inst)
            assert encode_instance(decode_instance(text)) == text


class TestDecodeInstance:
    def test_round_trip_catalog(self):
        for inst in catalog():
            assert decode_instance(encode_instance(inst)) == inst

    def test_decoded_big_instance_still_certifies(self):
        inst = decode_instance(encode_instance(c8c8p5()))
        assert check_highly(inst.graph, inst.coloring, 4).highly_resistant

    def test_self_loop(self):
        with pytest.raises(CodecError) as exc:
            decode_instance('{"n": 2, "edges": [[0, 0]], "k": 1, "colors": [[], []]}')
        assert exc.value.code == "self-loop"

    def test_color_out_of_range(self):
        with pytest.raises(CodecError) as exc:
            decode_instance('{"n": 1, "edges": [], "k": 7, "colors": [[8]]}')
        assert exc.value.code == "color-range"

    def test_duplicate_edge(self):
        with pytest.raises(CodecError) as exc:
            decode_instance(
                '{"n": 2, "edges": [[0, 1], [1, 0]], "k": 1, "colors": [[], []]}'
            )
        assert exc.value.code == "duplicate-edge"

    def test_index_range(self):
        with pytest.raises(CodecError) as exc:
            decode_instance('{"n": 2, "edges": [[0, 2]], "k": 1, "colors": [[], []]}')
        assert exc.value.code == "index-range"

    def test_length_mismatch(self):
        with pytest.raises(CodecError) as exc:
            decode_instance('{"n": 3, "edges": [], "k": 1, "colors": [[], []]}')
        assert exc.value.code == "length-mismatch"

    def test_color_order(self):
        with pytest.raises(CodecError) as exc:
            decode_instance('{"n": 1, "edges": [], "k": 3, "colors": [[2, 1]]}')
        assert exc.value.code == "color-order"
        with pytest.raises(CodecError) as exc:
            decode_instance('{"n": 1, "edges": [], "k": 3, "colors": [[1, 1]]}')
        assert exc.value.code == "color-order"

    def test_syntax(self):
        with pytest.raises(CodecError) as exc:
            decode_instance("{not json")
        assert exc.value.code == "syntax"

    def test_schema(self):
        for text in (
            '{"edges": [], "k": 1, "colors": []}',
            '{"n": 1, "edges": [], "k": 0, "colors": [[]]}',
            '{"n": true, "edges": [], "k": 1, "colors": [[]]}',
            '{"n": 0, "edges": [], "k": 1, "colors": [], "extra": 1}',
            # endpoints and colors that would otherwise be valid
            '{"n": 2, "edges": [[true, 0]], "k": 1, "colors": [[], []]}',
            '{"n": 2, "edges": [[0, true]], "k": 1, "colors": [[], []]}',
            '{"n": 2, "edges": [[0, 1.0]], "k": 1, "colors": [[], []]}',
            '{"n": 1, "edges": [], "k": 2, "colors": [[true]]}',
            '{"n": 1, "edges": [], "k": 2, "colors": [[1, 2.0]]}',
        ):
            with pytest.raises(CodecError) as exc:
                decode_instance(text)
            assert exc.value.code == "schema"


class TestDecodeEdgeList:
    def test_two_k2(self):
        assert decode_edge_list("4 2\n0 1\n2 3") == Graph(4, [(0, 1), (2, 3)])

    def test_triangle(self):
        assert decode_edge_list("3 3\n0 1\n1 2\n2 0") == Graph(3, [(0, 1), (0, 2), (1, 2)])

    def test_index_out_of_range(self):
        with pytest.raises(CodecError) as exc:
            decode_edge_list("2 1\n0 2")
        assert exc.value.code == "index-range"

    def test_count_mismatch(self):
        with pytest.raises(CodecError) as exc:
            decode_edge_list("3 2\n0 1")
        assert exc.value.code == "syntax"

    def test_isolated_vertices(self):
        assert decode_edge_list("5 0") == Graph(5)

    def test_vertex_cap_is_checked_before_building(self):
        with pytest.raises(CodecError) as exc:
            decode_edge_list("1000000000 0")
        assert exc.value.code == "too-large"
        with pytest.raises(CodecError) as exc:
            decode_instance(
                f'{{"n": {MAX_VERTICES + 1}, "edges": [], "k": 1, "colors": []}}'
            )
        assert exc.value.code == "too-large"
        assert decode_edge_list(f"{MAX_VERTICES} 0") == Graph(MAX_VERTICES)


@pytest.mark.parametrize(
    "text, code",
    [
        ("1_0 1\n0 9", "syntax"),
        ("+3 0", "syntax"),
        ("\u0663 0", "syntax"),
        ("3 1\n0 +2", "syntax"),
        ("-1 0", "schema"),
        ("2 1\n0 -1", "index-range"),
    ],
)
def test_edge_list_numbers_are_ascii_digits(text, code):
    with pytest.raises(CodecError) as exc:
        decode_edge_list(text)
    assert exc.value.code == code


def test_first_edge_fault_in_document_order_is_reported():
    with pytest.raises(CodecError) as exc:
        decode_edge_list("3 3\n0 1\n2 2\n1 0")
    assert exc.value.code == "self-loop" and "line 3" in str(exc.value)
    with pytest.raises(CodecError) as exc:
        decode_instance(
            '{"n": 3, "edges": [[0, 1], [1, 0], [2, 2]], "k": 1, "colors": [[], [], []]}'
        )
    assert exc.value.code == "duplicate-edge" and "edge #1" in str(exc.value)


@pytest.mark.parametrize(
    "decode, text, code, where",
    [
        # an edge fault wins over a color fault later in the document
        (decode_instance,
         '{"n": 2, "edges": [[0, 0]], "k": 1, "colors": [[5], []]}', "self-loop", "edge #0"),
        # `colors` must be a list before its length means anything
        (decode_instance, '{"n": 3, "edges": [], "k": 1, "colors": "ab"}', "schema", "colors"),
        (decode_edge_list, "3 2\n0 5\nx y", "index-range", "line 2"),
        # every entry of a list is range-checked before its order
        (decode_instance, '{"n": 1, "edges": [], "k": 3, "colors": [[9, 1]]}',
         "color-range", "9"),
        # and every entry is an integer before any is range-checked
        (decode_instance, '{"n": 1, "edges": [], "k": 3, "colors": [[9, "x"]]}',
         "schema", "colors[0]"),
        (decode_coloring, '{"k": 2, "colors": {"0": [1]}}', "schema", "colors"),
    ],
)
def test_first_fault_precedence(decode, text, code, where):
    with pytest.raises(CodecError) as exc:
        decode(text)
    assert exc.value.code == code and where in str(exc.value)


def test_decoded_objects_equal_the_checked_constructors():
    rng = random.Random(83)
    for _ in range(300):
        n = rng.randint(0, 12)
        k = rng.randint(1, 10)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in random_edges(rng, n)]
        rng.shuffle(edges)
        sets = [sorted(rng.sample(range(1, k + 1), rng.randint(0, k))) for _ in range(n)]
        graph = Graph(n, edges)
        kappa = Multicoloring.from_sets(k, sets)
        doc = {"n": n, "edges": [list(e) for e in edges], "k": k, "colors": sets}
        inst = decode_instance(json.dumps(doc))
        assert inst.graph == graph and inst.coloring == kappa
        lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
        assert decode_edge_list("\n".join(lines)) == graph
        assert decode_coloring(json.dumps({"k": k, "colors": sets})) == kappa


class TestDecodeColoring:
    def test_basic(self):
        kappa = decode_coloring('{"k": 2, "colors": [[1], [2], [1], [2]]}')
        assert kappa == Multicoloring.from_sets(2, [[1], [2], [1], [2]])

    def test_color_range(self):
        with pytest.raises(CodecError) as exc:
            decode_coloring('{"k": 2, "colors": [[3]]}')
        assert exc.value.code == "color-range"

    def test_palette_cap_is_checked_before_building(self):
        for decode, text in (
            (decode_coloring, HUGE_PALETTE),
            (decode_instance, '{"n": 1, "edges": [], "k": 1000000000000000, "colors": [[]]}'),
            (decode_coloring, f'{{"k": {MAX_COLORS + 1}, "colors": []}}'),
        ):
            with pytest.raises(CodecError) as exc:
                decode(text)
            assert exc.value.code == "too-large"
        kappa = decode_coloring(f'{{"k": {MAX_COLORS}, "colors": [[{MAX_COLORS}]]}}')
        assert kappa.palette_size == MAX_COLORS


DEEP_NESTING = "[" * 100_000
LONG_INTEGER = "9" * 5_000
HUGE_PALETTE = '{"k": 1000000000000000, "colors": [[]]}'


@pytest.mark.parametrize("text", [DEEP_NESTING, LONG_INTEGER, '{"k": ' + LONG_INTEGER + "}"])
@pytest.mark.parametrize("decode", [decode_instance, decode_coloring])
def test_unparsable_json_is_a_syntax_error(decode, text):
    with pytest.raises(CodecError) as exc:
        decode(text)
    assert exc.value.code == "syntax"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["name", "n", "edges", "k", "attackers", "colors", "x"]),
        inner,
        max_size=6,
    ),
    max_leaves=20,
)


@given(st.text() | json_values.map(json.dumps))
@example(DEEP_NESTING)
@example(LONG_INTEGER)
@example(HUGE_PALETTE)
@settings(max_examples=300, deadline=None)
def test_decoders_either_decode_or_raise_codec_error(text):
    for decode in (decode_instance, decode_edge_list, decode_coloring):
        try:
            decode(text)
        except CodecError:
            pass


def random_instance(rng, max_n=12, max_k=10):
    n = rng.randint(0, max_n)
    k = rng.randint(1, max_k)
    g = Graph(n, random_edges(rng, n))
    kappa = Multicoloring(k, [rng.getrandbits(k) for _ in range(n)])
    name = f"random-{rng.randint(0, 999)}" if rng.random() < 0.5 else None
    attackers = rng.randint(1, n) if n and rng.random() < 0.5 else None
    return ColoredInstance(name=name, graph=g, coloring=kappa, attackers=attackers)


def test_round_trip_random_instances():
    rng = random.Random(67)
    for _ in range(300):
        inst = random_instance(rng)
        text = encode_instance(inst)
        assert decode_instance(text) == inst
        assert encode_instance(decode_instance(text)) == text
