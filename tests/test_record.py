"""The value records: construction, immutability, equality, hashing, printing,
pickling and copying, checked against what the dataclass versions did."""

import copy
import pickle

import pytest

from cdsgame.cyclegraph import (
    AltCycleDecomposition,
    CycleGraph,
    StrategicPile,
    alternating_cycles,
    build_cycle_graph,
)
from cdsgame.families import BoundPrediction, bound_prediction
from cdsgame.games import (
    ONE,
    TWO,
    CdsGame,
    CdsState,
    GcdsGame,
    GcdsState,
    NpReport,
    SolveReport,
)
from cdsgame.graphs import Graph, MasterList, Position, masterlist
from cdsgame.permutations import Permutation
from cdsgame.record import Record

GRAPH = Graph([1, 2, 3], [(1, 2), (2, 3)])
PERM = Permutation([2, 1, 3])
POSITION = Position(GRAPH, frozenset({1, 3}))

# One instance of every record class and its repr, as the dataclasses printed it.
INSTANCES = [
    (build_cycle_graph(PERM), "CycleGraph(n=3, black_successor={1: 2, 3: 1, 4: 3, 2: 0})"),
    (alternating_cycles(build_cycle_graph(PERM)),
     "AltCycleDecomposition(cycles=((('dotted', 0, 1), ('black', 1, 2), ('dotted', 2, 3), "
     "('black', 3, 1), ('dotted', 1, 2), ('black', 2, 0)), (('dotted', 3, 4), ('black', 4, 3))))"),
    (StrategicPile((1, 2)), "StrategicPile(codes=(1, 2))"),
    (bound_prediction(4, 3), "BoundPrediction(verdict='ONE', rules=('one-basic', 'one-endgame-low'))"),
    (masterlist(GRAPH, (1, 2)), "MasterList(column_x=frozenset(), column_y=frozenset({3}))"),
    (POSITION, "Position(graph=Graph([1, 2, 3], [(1, 2), (2, 3)]), favorable=frozenset({1, 3}))"),
    (GcdsState(POSITION, ONE),
     "GcdsState(position=Position(graph=Graph([1, 2, 3], [(1, 2), (2, 3)]), "
     "favorable=frozenset({1, 3})), mover='ONE')"),
    (CdsState(PERM, frozenset({1}), TWO),
     "CdsState(perm=Permutation([2, 1, 3]), favorable=frozenset({1}), mover='TWO')"),
    (SolveReport(ONE, ((1, 2),), 3, 4),
     "SolveReport(winner='ONE', principal_variation=((1, 2),), nodes_expanded=3, cache_hits=4)"),
    (NpReport("N", ONE, TWO), "NpReport(status='N', winner_one_first='ONE', winner_two_first='TWO')"),
    (CdsGame(frozenset({1, 2})), "CdsGame(favorable=frozenset({1, 2}))"),
    (GcdsGame(frozenset({1})), "GcdsGame(favorable=frozenset({1}))"),
]

IDS = [type(obj).__name__ for obj, _ in INSTANCES]

# The dataclass hashes of the instances whose fields hash the same in every
# process (no str inside).
PINNED_HASHES = {
    "StrategicPile": 7059930188335900088,
    "MasterList": 1134276744335570323,
    "Position": 7309792820208105542,
}


def _fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in obj.__slots__)


@pytest.mark.parametrize("obj, text", INSTANCES, ids=IDS)
def test_records_print_compare_and_hash_as_the_dataclasses_did(obj, text):
    assert repr(obj) == text
    assert obj == type(obj)(*_fields(obj)) and not obj != type(obj)(*_fields(obj))
    assert obj != _fields(obj)
    if isinstance(obj, CycleGraph):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(obj)
        return
    assert hash(obj) == hash(_fields(obj))
    assert hash(obj) == PINNED_HASHES.get(type(obj).__name__, hash(obj))


@pytest.mark.parametrize("obj, text", INSTANCES, ids=IDS)
def test_records_pickle_and_copy_to_equal_objects(obj, text):
    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(clone) is type(obj) and clone == obj and repr(clone) == text


@pytest.mark.parametrize("obj, text", INSTANCES, ids=IDS)
def test_record_fields_cannot_be_assigned(obj, text):
    name = obj.__slots__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(obj, name, None)
    with pytest.raises(AttributeError):
        obj.stray = None
    assert repr(obj) == text


def test_records_of_two_classes_with_one_field_are_unequal():
    assert CdsGame(frozenset({1})) != GcdsGame(frozenset({1}))
    assert StrategicPile((1,)) != AltCycleDecomposition((1,))


def test_records_take_fields_by_position_or_keyword():
    assert MasterList(frozenset({1}), column_y=frozenset()) == MasterList(
        column_y=frozenset(), column_x=frozenset({1}))
    with pytest.raises(TypeError, match="takes the fields column_x, column_y"):
        MasterList(frozenset({1}))
    with pytest.raises(TypeError, match="missing field 'column_y'"):
        MasterList(column_x=frozenset({1}))
    with pytest.raises(TypeError, match="takes the fields column_x, column_y"):
        MasterList(frozenset(), frozenset(), frozenset())
    with pytest.raises(TypeError, match="takes the fields column_x, column_y"):
        MasterList(frozenset(), frozenset(), column_x=frozenset())
    with pytest.raises(TypeError, match="takes the fields column_x, column_y"):
        MasterList(frozenset(), frozenset(), column_z=frozenset())
    assert issubclass(MasterList, Record) and not hasattr(MasterList((), ()), "__dict__")


def test_record_validation_messages_are_unchanged():
    with pytest.raises(ValueError, match=r"^favorable codes \['True'\] out of range 1\.\.2$"):
        CdsState(PERM, frozenset({True}), ONE)
    with pytest.raises(ValueError, match=r"^favorable vertices \[9, 'x'\] are not in the graph$"):
        Position(GRAPH, frozenset({9, "x"}))
    with pytest.raises(ValueError, match=r"^unknown player 'THREE'$"):
        GcdsState(POSITION, "THREE")
    with pytest.raises(ValueError, match=r"^unknown player 'x'$"):
        CdsState(PERM, frozenset({1}), "x")
