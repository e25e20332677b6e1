import random

import pytest

from lericone import (And, Atom, Imp, Neg, Or, ParseError, PathError, Sequent,
                      atom_occurrences, parse, parse_sequent, render,
                      render_sequent, subformula_at)
from lericone.formula import all_paths, atoms_of, size
from lericone.generate import random_formula

from conftest import F, p1, p2, p3


def test_parse_examples():
    assert parse("~p1 -> (p1 -> p2)") == Imp(Neg(p1), Imp(p1, p2))
    assert parse("p1") == Atom(1)
    assert parse("p1 & p2 | p3") == Or(And(p1, p2), p3)


def test_parse_matches_fully_parenthesised_form():
    assert parse("p1 & p2 | p3") == parse("((p1 & p2) | p3)")
    assert parse("p1 -> p2 -> p3") == parse("(p1 -> (p2 -> p3))")
    assert parse("~p1 & p2") == parse("((~p1) & p2)")


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse("p1 & ")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse("p0")
    with pytest.raises(ParseError):
        parse("(p1 -> p2")
    with pytest.raises(ParseError):
        parse("p1 p2")
    with pytest.raises(ParseError):
        parse("p")
    # sequent offsets count from the start of the whole text
    for text, position in (("p1 |- p2 &", 10), ("p1, p2 & |- p1", 9),
                           ("p1 p2 |- p3", 3), ("p1 |- p2 |- p3", 10)):
        with pytest.raises(ParseError) as err:
            parse_sequent(text)
        assert err.value.position == position


def test_render_examples():
    assert render(Imp(Neg(p1), Imp(p1, p2))) == "~p1 -> (p1 -> p2)"
    assert render(Atom(7)) == "p7"
    assert render(And(p1, Or(p2, p3))) == "p1 & (p2 | p3)"


def test_parse_render_round_trip():
    rng = random.Random(7)
    for _ in range(400):
        f = random_formula(rng, (1, 2, 3, 41), rng.randint(0, 10))
        assert parse(render(f)) == f


def test_large_atom_indices():
    f = parse("p20250")
    assert f == Atom(20250)
    assert parse(render(Atom(10 ** 40))) == Atom(10 ** 40)


def test_subformula_at():
    f = F("~p1 -> (p1 -> p2)")
    assert subformula_at(f, ("left", "only")) == p1
    assert subformula_at(f, ()) == f
    assert subformula_at(And(p1, p2), ("right",)) == p2


def test_subformula_at_bad_path():
    with pytest.raises(PathError) as err:
        subformula_at(And(p1, p2), ("only",))
    assert err.value.selector == "only"
    with pytest.raises(PathError):
        subformula_at(p1, ("left",))


def test_atom_occurrences():
    f = F("~p1 -> (p1 -> p2)")
    assert atom_occurrences(f) == [
        (("left", "only"), 1), (("right", "left"), 1), (("right", "right"), 2)]
    assert atom_occurrences(p1) == [((), 1)]
    assert atom_occurrences(Or(p1, p1)) == [(("left",), 1), (("right",), 1)]
    rng = random.Random(4)
    for _ in range(40):
        g = random_formula(rng, (1, 2, 3), rng.randint(0, 8))
        assert atoms_of(g) == {atom for _, atom in atom_occurrences(g)}


def test_paths_enumerate_exactly_the_valid_ones():
    rng = random.Random(3)
    for _ in range(40):
        f = random_formula(rng, (1, 2), rng.randint(0, 6))
        paths = list(all_paths(f))
        assert len(paths) == size(f)
        for path in paths:
            subformula_at(f, path)
        for path in paths:
            with pytest.raises(PathError):
                subformula_at(f, path + ("down",))


def test_sequent_parsing():
    s = parse_sequent("p1, p1->p2 |- p2")
    assert s == Sequent((p1, Imp(p1, p2)), p2)
    assert parse_sequent("p1 -> p1") == Sequent((), Imp(p1, p1))
    assert render_sequent(s) == "p1, p1 -> p2 |- p2"
    assert parse_sequent("|- p1") == parse_sequent(" |- p1") == Sequent((), p1)
    for text, position in (("p1, , p2 |- p1", 4), (", |- p1", 0),
                           ("p1, |- p1", 4), (",p1 |- p1", 0)):
        with pytest.raises(ParseError, match="empty premise") as err:
            parse_sequent(text)
        assert err.value.position == position
