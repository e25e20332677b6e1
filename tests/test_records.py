"""The record contract: every record class of the package is an immutable
slotted value on ``formula.Record``, hashed and compared by its field
tuple, printed in the ``Name(field=value, ...)`` form, and rebuilt by
pickle and copy."""

import copy
import pickle

import pytest

from lericone import (And, Assignment, Atom, AxiomRef, HilbertProof,
                      LericoneSubstitution, Or, ProofLine, RuleRef, decide,
                      lericone_sharing, parse, parse_sequent, prove,
                      skeletonize, star)
from lericone.formula import Record
from lericone.tableau import Triple

from conftest import F


def _records():
    """One instance of each of the package's 23 record classes, by name."""
    proved = prove(parse_sequent("p1 & p2 |- p2 | p3"))
    refuted = prove(parse_sequent("p1 -> ~~p1"))
    step = proved.proof.steps[0]
    sub = LericoneSubstitution({("nnlc", 1): F("p2 & p3")}, keying="faithful")
    line = ProofLine(F("p1 -> p1"), AxiomRef("A1"))
    records = {
        "Atom": F("p1"), "Neg": F("~p1"), "And": F("p1 & p2"),
        "Or": F("p1 | p2"), "Imp": F("p1 -> p2"),
        "Sequent": parse_sequent("p1, ~p2 |- p1 -> p2"),
        "Triple": step.triple, "ClosureWitness": proved.proof.witnesses[0][1],
        "Branch": refuted.tableau.branches[0], "Tableau": refuted.tableau,
        "RuleApplication": step, "TableauProof": proved.proof,
        "TableauResult": proved,
        "AxiomRef": line.just, "RuleRef": RuleRef("R1", (0, 0)), "ProofLine": line,
        "HilbertProof": HilbertProof("BM", [line]),
        "LericoneSubstitution": sub, "_Composite": star(sub, sub),
        "RenamingTable": skeletonize(parse_sequent("p1 -> p1"))[1],
        "Assignment": refuted.countermodel,
        "Verdict": decide(parse_sequent("p1 -> p1")),
        "SharingWitness": lericone_sharing(F("p1 -> p1")),
    }
    for name, record in records.items():
        assert type(record).__name__ == name
    return records


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_hash_is_the_field_tuples(name):
    record = RECORDS[name]
    assert isinstance(record, Record)
    fields = tuple(getattr(record, field) for field in record._fields)
    if name == "LericoneSubstitution":  # hashes its table's items
        assert hash(record) == hash((record.keying, frozenset(record.entries.items())))
        return
    try:
        expected = hash(fields)
    except TypeError:  # a dict or list field, as in Assignment or Branch
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    assert record == type(record)(*fields)


def test_records_of_different_classes_differ():
    a, b = Atom(1), Atom(2)
    assert And(a, b) != Or(a, b)
    assert Atom(1) != 1
    assert Atom(1) == Atom(1) and hash(Atom(1)) == hash((1,))


def test_repr_names_every_field():
    assert repr(Triple("n", 1, F("~p1 -> (p2 & p1)"))) == (
        "Triple(seq='n', sign=1, formula=Imp(left=Neg(child=Atom(index=1)), "
        "right=And(left=Atom(index=2), right=Atom(index=1))))")


@pytest.mark.parametrize("name", ["Atom", "Imp", "Triple", "HilbertProof",
                                  "Assignment", "LericoneSubstitution"])
def test_records_are_frozen(name):
    record = RECORDS[name]
    for field in (record._fields[0], "unknown"):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(record, field)


def test_working_state_is_mutable():
    branch = RECORDS["Branch"]
    assert type(branch)(0).triples is not type(branch)(0).triples
    tableau = copy.deepcopy(RECORDS["Tableau"])
    tableau.next_ident += 1
    assert tableau != RECORDS["Tableau"]
    assert RECORDS["Tableau"] == copy.deepcopy(RECORDS["Tableau"])


@pytest.mark.parametrize("name", ["Imp", "Triple", "Assignment",
                                  "LericoneSubstitution", "HilbertProof",
                                  "TableauProof"])
def test_pickle_and_copy_round_trip(name):
    record = RECORDS[name]
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record
    if isinstance(record, (Assignment, LericoneSubstitution)):
        twin = pickle.loads(pickle.dumps(record))
        assert twin.lookup("lc", 1) == record.lookup("lc", 1)


def test_equal_deep_children_compare_by_identity():
    """``==`` compares child tuples, which skip identical items, so a
    hash-consed formula compares its shared halves without descending."""
    f = parse("(" + "~" * 3000 + "p1) -> (" + "~" * 3000 + "p1)")
    assert f.left is f.right
    assert f.left == f.right
