"""Highly attack-resistant vertex multicolorings: verification, named
constructions, existence search, and serialization."""

from .checker import (
    CheckReport,
    SampleReport,
    check_highly,
    check_hr,
    check_resistant,
    sample_check,
)
from .codec import CodecError, decode_coloring, decode_edge_list, decode_instance, encode_instance
from .coloring import Multicoloring
from .constructions import ColoredInstance, c7_pair, c8c8p5, catalog, clique_partition, instance
from .graph import Graph, VertexSet, complete, cycle, disjoint_union, path
from .lemmas import LemmaRunReport, run_lemma
from .search import (
    Decision,
    KEntry,
    MinColorsResult,
    NonexistenceSummary,
    blocking_attack,
    decide,
    exhaustive_nonexistence,
    k_table,
    min_colors,
)

__all__ = [
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

__version__ = "0.1.0"
