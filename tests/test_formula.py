import random

import pytest

from lericone import (And, Atom, Imp, Neg, Or, ParseError, PathError, Sequent,
                      atom_occurrences, parse, parse_sequent, render,
                      render_sequent, subformula_at)
from lericone.formula import all_paths, atoms_of, size
from lericone.generate import exhaustive_formulas, random_formula

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
    # atom indices are ASCII digits: "²" and "١" pass str.isdigit
    for text, position, message in (("p²", 1, "atom needs a numeric index"),
                                    ("p1²", 2, "trailing input"),
                                    ("p1 -> p١", 7, "atom needs a numeric index"),
                                    # past the interpreter's integer string limit
                                    ("p1 -> p" + "9" * 5000, 7, "atom index too long")):
        with pytest.raises(ParseError, match=message) as err:
            parse(text)
        assert err.value.position == position
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
    # past the interpreter's integer string limit: a message about the
    # atom index, not the interpreter's advice
    with pytest.raises(ValueError, match="^atom index too long to render: "
                                         "more than 4,300 digits$"):
        render(Imp(p1, Neg(Atom(2 ** 20000))))


_PREVIOUS_PRECEDENCE = {Imp: 1, Or: 2, And: 3, Neg: 4, Atom: 5}


def _previous_render(f, parent_prec=0):
    """The printer as it was before it read the parser's connective table."""
    prec = _PREVIOUS_PRECEDENCE[type(f)]
    if isinstance(f, Atom):
        return f"p{f.index}"
    if isinstance(f, Neg):
        return "~" + _previous_render(f.child, prec)
    symbol = {And: "&", Or: "|", Imp: "->"}[type(f)]
    if isinstance(f, Imp):
        text = (_previous_render(f.left, 4) + f" {symbol} "
                + _previous_render(f.right, 4))
    else:
        text = (_previous_render(f.left, prec) + f" {symbol} "
                + _previous_render(f.right, prec + 1))
    return f"({text})" if prec < parent_prec else text


def test_render_matches_the_previous_printer():
    formulas = list(exhaustive_formulas(4))
    assert len(formulas) == 56_842  # every formula over p1, p2 up to 4 connectives
    rng = random.Random(17)
    formulas += [random_formula(rng, (1, 2, 3, 12), rng.randint(5, 60))
                 for _ in range(10_000)]
    for f in formulas:
        assert render(f) == _previous_render(f)


def _previous_random_formula(rng, atoms, connectives):
    """The generator's draws as they were with a literal (And, Or, Imp)."""
    if connectives == 0:
        return Atom(rng.choice(atoms))
    kind = rng.choice((Neg, And, Or, Imp))
    if kind is Neg:
        return Neg(_previous_random_formula(rng, atoms, connectives - 1))
    left_budget = rng.randint(0, connectives - 1)
    return kind(_previous_random_formula(rng, atoms, left_budget),
                _previous_random_formula(rng, atoms, connectives - 1 - left_budget))


def test_generators_take_the_connectives_in_table_order():
    ours, previous = random.Random(5), random.Random(5)
    for _ in range(2_000):
        size = ours.randint(0, 12)
        assert size == previous.randint(0, 12)
        assert (random_formula(ours, (1, 2, 3), size)
                == _previous_random_formula(previous, (1, 2, 3), size))
    layer = list(exhaustive_formulas(1, atoms=(1,)))
    assert layer == [p1, Neg(p1), And(p1, p1), Or(p1, p1), Imp(p1, p1)]


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


class _ReferenceParser:
    """The recursive-descent parser that preceded the precedence loop,
    kept as the reference its errors and trees are compared with:

        formula := imp ; imp := or ("->" imp)? ; or := and ("|" and)* ;
        and := unary ("&" unary)* ; unary := "~" unary | "p" DIGITS | "(" formula ")"
    """

    def __init__(self, text, pos):
        self.text = text
        self.pos = pos

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, token):
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def formula(self):
        left = self.disjunction()
        if self.eat("->"):
            return Imp(left, self.formula())
        return left

    def disjunction(self):
        node = self.conjunction()
        while self.peek() == "|":
            self.pos += 1
            node = Or(node, self.conjunction())
        return node

    def conjunction(self):
        node = self.unary()
        while self.peek() == "&":
            self.pos += 1
            node = And(node, self.unary())
        return node

    def unary(self):
        ch = self.peek()
        if ch == "~":
            self.pos += 1
            return Neg(self.unary())
        if ch == "(":
            self.pos += 1
            node = self.formula()
            if not self.eat(")"):
                raise ParseError("unbalanced parenthesis", self.pos, (")",))
            return node
        if ch == "p":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
                self.pos += 1
            if self.pos == start:
                raise ParseError("atom needs a numeric index", self.pos, ("digit",))
            try:
                index = int(self.text[start:self.pos])
            except ValueError:
                raise ParseError("atom index too long", start, ("fewer digits",)) from None
            if index < 1:
                raise ParseError("atom index 0 is not allowed", start, ("index >= 1",))
            return Atom(index)
        raise ParseError(f"unexpected {ch!r}" if ch else "unexpected end of input",
                         self.pos, ("~", "(", "p<digits>"))


def _reference_parse_from(text, pos):
    p = _ReferenceParser(text, pos)
    node = p.formula()
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError(f"trailing input {text[p.pos:]!r}", p.pos)
    return node


def _reference_parse_sequent(text):
    turnstile = text.find("|-")
    if turnstile < 0:
        return Sequent((), _reference_parse_from(text, 0))
    premises = []
    if text[:turnstile].strip():
        start = 0
        for part in text[:turnstile].split(","):
            end = start + len(part)
            if not part.strip():
                raise ParseError("empty premise", end)
            premises.append(_reference_parse_from(text[:end], start))
            start = end + 1
    return Sequent(tuple(premises), _reference_parse_from(text, turnstile + 2))


def _outcome(parse_text, text):
    """The rendered result, or the ParseError's message, offset and
    expected tokens."""
    try:
        result = parse_text(text)
    except ParseError as exc:
        return str(exc), exc.position, exc.expected
    if isinstance(result, Sequent):
        return render_sequent(result), tuple(render(p) for p in result.premises)
    return render(result)


def test_parser_agrees_with_the_recursive_descent_reference():
    rng = random.Random(2024)
    pieces = list("p0123456789~&|->() ,\t²x ") + ["p1", "->", "|-", " "]
    texts = ["".join(rng.choice(pieces) for _ in range(rng.randint(0, 16)))
             for _ in range(80_000)]
    for _ in range(20_000):  # renders with one insertion and one deletion
        text = render(random_formula(rng, (1, 2, 3, 10), rng.randint(0, 8)))
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(pieces) + text[i:]
        i = rng.randrange(len(text))
        texts.append(text[:i] + text[i + 1:])
    parsed = 0
    for text in texts:
        expected = _outcome(lambda t: _reference_parse_from(t, 0), text)
        assert _outcome(parse, text) == expected, text
        parsed += isinstance(expected, str)
        assert (_outcome(parse_sequent, text)
                == _outcome(_reference_parse_sequent, text)), text
    # both outcomes are exercised
    assert 2_000 < parsed < len(texts) - 2_000


def test_a_shared_intern_table_parses_as_a_parse_per_text(monkeypatch):
    # texts read in turn with one table, as proof_from_json reads a
    # document's lines, give the trees and ParseErrors of separate parses,
    # also where a text restates earlier ones, whole or in parentheses
    from lericone import formula
    recalled = []
    recall = formula._recall

    def recalling(text, pos, nodes):
        node, after = recall(text, pos, nodes)
        if node is not None:
            recalled.append(text)
        return node, after

    monkeypatch.setattr(formula, "_recall", recalling)
    rng = random.Random(2025)
    pieces = list("p0123456789~&|->() \t") + ["p1", "->", "()"]
    hits = [0, 0]  # texts with a recalled operand that fail, that parse
    for _ in range(600):
        nodes: dict = {}
        texts = []
        for _ in range(rng.randint(1, 10)):
            if texts and rng.random() < 0.7:
                left, right = rng.choice(texts), rng.choice(texts)
                text = rng.choice(["({}) {} ({})", "~({}) {} ({})", "({}){}({})"]).format(
                    left, rng.choice(["&", "|", "->"]), right)
            else:
                text = render(random_formula(rng, (1, 2, 3, 10), rng.randint(0, 6)))
            if rng.random() < 0.25:  # one insertion or deletion
                i = rng.randrange(len(text) + 1)
                text = (text[:i] + rng.choice(pieces) + text[i:] if rng.random() < 0.5
                        else text[:i] + text[i + 1:])
            texts.append(text)
            before = len(recalled)
            shared = _outcome(lambda t: formula._parse_from(t, 0, nodes), text)
            assert shared == _outcome(parse, text), text
            if len(recalled) > before:
                hits[isinstance(shared, str)] += 1
    # both outcomes follow a recalled operand
    assert min(hits) > 200


def test_parse_has_no_depth_limit():
    n = 100_000
    node = parse("~" * n + "p1")
    for _ in range(n):
        assert type(node) is Neg
        node = node.child
    assert node == p1
    assert parse("(" * n + "p1" + ")" * n) == p1
    # "->" nests to the right, "&" to the left
    node = parse(" -> ".join(f"p{i}" for i in range(1, n + 1)))
    for i in range(1, n):
        assert type(node) is Imp and node.left == Atom(i)
        node = node.right
    assert node == Atom(n)
    node = parse(" & ".join(f"p{i}" for i in range(1, n + 1)))
    for i in range(n, 1, -1):
        assert type(node) is And and node.right == Atom(i)
        node = node.left
    assert node == p1
