"""The package's immutable records keep the behaviour of frozen, slotted
dataclasses: construction and its TypeErrors, validation, immutability,
value equality and hashing, repr text, pickling and copying."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from hrcolor import lemmas, search
from hrcolor.checker import CheckReport, SampleReport, check_highly, sample_check
from hrcolor.coloring import Multicoloring
from hrcolor.constructions import ColoredInstance, clique_partition, instance
from hrcolor.graph import Graph, VertexSet, cycle
from hrcolor.record import Record


def samples():
    """One instance of each of the eleven records, built by the package."""
    inst = clique_partition(2)
    g, kappa = inst.graph, inst.coloring
    sat_graph = clique_partition(1).graph
    return [
        check_highly(g, kappa, 3),
        sample_check(g, kappa, 3, 50, 1),
        VertexSet(0b101, 3),
        instance("paper-14"),
        lemmas.SCOPES[4],
        lemmas.Violation(0, cycle(3), Multicoloring(2, [1, 2, 3]), 1, 1),
        lemmas.run_lemma(4, 20, 1),
        search.decide(sat_graph, 1, 2, 1000),
        search.min_colors(sat_graph, 1, 3, 1000),
        search.exhaustive_nonexistence(3, 1, 2, 1000),
        search.k_table()[1],
    ]


def fields(record):
    return tuple(getattr(record, name) for name in record.__match_args__)


def test_samples_cover_every_record_class():
    classes = {type(r) for r in samples()}
    assert len(classes) == 11 and all(issubclass(c, Record) for c in classes)


def test_repr_text_is_the_dataclass_text():
    assert repr(CheckReport(True, None, True, None, 5)) == (
        "CheckReport(hr_holds=True, hr_witness=None, resistant=True, "
        "resistance_witness=None, attack_sets_examined=5)"
    )
    assert repr(search.k_table()[1]) == (
        "KEntry(attackers=1, n_lo=4, n_hi=None, value=2, infinite=False, "
        "proven_by=('construction',), instance_name='clique-partition:1', note='')"
    )
    assert repr(VertexSet(0b101, 3)) == "VertexSet({0, 2}, capacity=3)"


def test_fields_are_slots_in_declaration_order():
    r = search.k_table()[1]
    assert type(r).__slots__ == type(r).__match_args__ == (
        "attackers", "n_lo", "n_hi", "value", "infinite", "proven_by", "instance_name", "note",
    )
    assert not hasattr(r, "__dict__")
    match VertexSet(0b101, 3):
        case VertexSet(mask, capacity):
            assert (mask, capacity) == (0b101, 3)


@pytest.mark.parametrize("record", samples(), ids=lambda r: type(r).__name__)
def test_value_semantics(record):
    cls = type(record)
    twin = cls(*fields(record))
    assert twin == record and twin is not record
    assert cls(**dict(zip(cls.__match_args__, fields(record)))) == record
    assert hash(record) == hash(fields(record))
    # equality holds only within the class, never with the field tuple
    assert record != fields(record)
    assert cls.__eq__(record, fields(record)) is NotImplemented
    name = cls.__match_args__[0]
    with pytest.raises(FrozenInstanceError):
        setattr(record, name, None)
    with pytest.raises(FrozenInstanceError):
        delattr(record, name)
    with pytest.raises(FrozenInstanceError):
        record.not_a_field = 1
    assert fields(record) == fields(twin)


@pytest.mark.parametrize("record", samples(), ids=lambda r: type(r).__name__)
def test_pickle_and_copies_round_trip(record):
    for clone in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == repr(record)


def test_defaults_fill_omitted_fields():
    row = search.KEntry(2, 1, 8, None, True, ("paper-citation",))
    assert (row.instance_name, row.note) == (None, "")
    assert search.KEntry(2, 1, 8, None, True, (), note="x").note == "x"
    assert search.KEntry(2, 1, 8, None, True, (), None, "y").note == "y"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: VertexSet(1), "missing"),
        (lambda: VertexSet(mask=1), "missing"),
        (lambda: search.KEntry(2, 1, 8, None, True), "missing"),
        (lambda: VertexSet(1, 3, extra=2), "unexpected keyword"),
        (lambda: VertexSet(1, capacity=3, extra=2), "unexpected keyword"),
        (lambda: VertexSet(1, 3, mask=1), "multiple values"),
        (lambda: VertexSet(1, capacity=3, mask=1), "multiple values"),
        (lambda: VertexSet(1, 3, 5), "positional arguments"),
        (lambda: search.KEntry(2, 1, 8, None, True, (), None, "", "z"), "positional arguments"),
    ],
)
def test_bad_calls_raise_type_error(call, message):
    # the wording is Python's own for a bad call, as the dataclass had it
    with pytest.raises(TypeError, match=message):
        call()


class _Pair(Record):
    x: int
    y: int


class _OtherPair(Record):
    x: int
    y: int


def test_records_of_different_classes_are_unequal():
    assert _Pair(1, 2) == _Pair(x=1, y=2)
    assert _Pair(1, 2) != _OtherPair(1, 2)
    assert len({_Pair(1, 2), _OtherPair(1, 2)}) == 2


def _g2():
    return Graph(2, [(0, 1)])


@pytest.mark.parametrize(
    "cls, args",
    [
        (VertexSet, (-1, 3)),
        (VertexSet, (0b1000, 3)),
        (VertexSet, (0, -1)),
        (CheckReport, (True, VertexSet(1, 3), True, None, 5)),
        (CheckReport, (True, None, False, None, 5)),
        (SampleReport, (10, 11, 0, VertexSet(1, 3), None, 1, 1)),
        (SampleReport, (10, 0, 1, None, None, 1, 1)),
        (ColoredInstance, ("x", _g2(), Multicoloring(1, [1]), 1)),
        (ColoredInstance, ("x", _g2(), Multicoloring(1, [1, 1]), 0)),
        (search.Decision, ("maybe", None, 0, 10)),
        (search.Decision, (search.SAT, None, 0, 10)),
    ],
)
def test_checks_fire_positionally_and_by_keyword(cls, args):
    with pytest.raises(ValueError):
        cls(*args)
    with pytest.raises(ValueError):
        cls(**dict(zip(cls.__match_args__, args)))
