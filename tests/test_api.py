"""The package's public surface.

(a) pins `hrcolor.__all__`; (b) pins the names and signatures that the
benchmark under `bench/` calls, so that deleting one fails here rather than
in a benchmark run; (c) fails when `src/hrcolor` defines a function, class
or method that nothing in the package reaches and `__all__` does not export.
"""

import ast
import inspect
from pathlib import Path

import hrcolor
from hrcolor import checker, codec, constructions, graph
from hrcolor.coloring import Multicoloring
from hrcolor.constructions import ColoredInstance
from hrcolor.graph import Graph

SRC = Path(hrcolor.__file__).resolve().parent

PUBLIC = [
    "CheckReport",
    "CodecError",
    "ColoredInstance",
    "Decision",
    "Graph",
    "KEntry",
    "LemmaRunReport",
    "MinColorsResult",
    "Multicoloring",
    "NonexistenceSummary",
    "SampleReport",
    "VertexSet",
    "blocking_attack",
    "c7_pair",
    "c8c8p5",
    "catalog",
    "check_highly",
    "check_hr",
    "check_resistant",
    "clique_partition",
    "complete",
    "cycle",
    "decide",
    "decode_coloring",
    "decode_edge_list",
    "decode_instance",
    "disjoint_union",
    "encode_instance",
    "exhaustive_nonexistence",
    "instance",
    "k_table",
    "min_colors",
    "path",
    "run_lemma",
    "sample_check",
]

# definitions that nothing in src/ reaches but that must stay, each with
# its reason
KEPT_UNREACHED = {
    "Graph.num_edges": "bench/workloads.py writes edge-list headers with it",
}


# ------------------------------------------------------------ (a) __all__


def test_all_is_pinned_and_resolves():
    assert hrcolor.__all__ == PUBLIC
    for name in hrcolor.__all__:
        assert getattr(hrcolor, name) is not None, name


# ------------------------------------------------------ (b) bench surface


def test_graph_surface_used_by_bench():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.edges() == ((0, 1), (1, 2)) and g.num_edges() == 2
    assert graph.cycle(4).num_edges() == 4
    assert graph.path(4).num_edges() == 3
    assert graph.complete(4).num_edges() == 6
    assert graph.disjoint_union(graph.path(2), graph.path(2)).edges() == ((0, 1), (2, 3))


def test_coloring_surface_used_by_bench():
    kappa = Multicoloring(3, [0b101, 0])
    assert kappa.palette_size == 3 and kappa.masks == (0b101, 0)
    assert kappa.colors_of(0) == (1, 3) and kappa.colors_of(1) == ()
    assert Multicoloring.from_sets(3, [[1, 3], []]) == kappa


def test_checker_signatures_used_by_bench():
    # check_hr and check_resistant accept the threads keyword the bench
    # tracer passes; check_highly takes none
    def keywords(fn):
        params = inspect.signature(fn).parameters.values()
        return [p.name for p in params if p.kind is p.KEYWORD_ONLY]

    assert keywords(checker.check_hr) == ["threads"]
    assert keywords(checker.check_resistant) == ["threads"]
    assert keywords(checker.check_highly) == []
    inst = constructions.clique_partition(1)
    assert checker.check_hr(inst.graph, inst.coloring, 1, threads=2) == (True, None)
    assert checker.check_resistant(inst.graph, inst.coloring, 1, threads=2) == (True, None)


def test_constructions_and_codec_surface_used_by_bench():
    inst = constructions.instance("paper-14")
    assert isinstance(inst, ColoredInstance)
    assert (inst.name, inst.graph.n, inst.attackers) == ("paper-14", 14, 3)
    assert constructions.clique_partition(2).graph.n == 9
    assert [e.name for e in constructions.catalog()][-2:] == ["paper-14", "paper-21"]
    built = ColoredInstance("x", Graph(2, [(0, 1)]), Multicoloring(1, [1, 0]), 1)
    assert codec.decode_instance(codec.encode_instance(built)) == built


# ----------------------------------------------- (c) no unreached definitions


def _definitions(tree):
    """Module-level functions and classes, and the methods of each class,
    as (qualified name, bare name)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name


def test_every_definition_is_reached_or_exported():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreached = sorted(
        f"{module}:{qualified}"
        for module, tree in trees.items()
        for qualified, name in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in referenced
        and name not in hrcolor.__all__
        and qualified not in KEPT_UNREACHED
    )
    assert unreached == []
    # every exemption still names a definition
    defined = {q for tree in trees.values() for q, _ in _definitions(tree)}
    assert set(KEPT_UNREACHED) <= defined
