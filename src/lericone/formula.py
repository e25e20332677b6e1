"""Propositional formula AST, concrete syntax, and occurrence addressing.

Formulas are immutable values built from atoms ``p1, p2, ...`` (arbitrary
precision indices, >= 1) with negation ``~``, conjunction ``&``, disjunction
``|`` and the conditional ``->``.  Precedence is ``~ > & > | > ->``; the
conditional is right-associative, the lattice connectives left-associative.

Subformula occurrences are addressed by paths: tuples of child selectors,
``"only"`` for the child of a negation and ``"left"``/``"right"`` for the
children of binary nodes.  The empty path addresses the root.  Occurrence
addressing is delegated to ``seq.occurrences`` (the walk over every path)
and ``seq.locate`` (the descent along one); ``seq`` imports this module,
so the functions here import those two when called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

__all__ = [
    "Formula", "Atom", "Neg", "And", "Or", "Imp", "Sequent",
    "OccurrencePath", "ParseError", "PathError",
    "parse", "render", "parse_sequent", "render_sequent",
    "subformula_at", "atom_occurrences", "all_paths", "atoms_of", "size",
]


@dataclass(frozen=True)
class Atom:
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"atom index must be >= 1, got {self.index}")


@dataclass(frozen=True)
class Neg:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Neg, And, Or, Imp]

OccurrencePath = tuple  # of "only" | "left" | "right"


@dataclass(frozen=True)
class Sequent:
    """Finitely many premises and one conclusion."""

    premises: tuple
    conclusion: Formula

    @property
    def formulas(self) -> tuple:
        return self.premises + (self.conclusion,)


class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected: tuple = ()):
        self.position = position
        self.expected = expected
        detail = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"at offset {position}: {message}{detail}")


class PathError(ValueError):
    def __init__(self, message: str, selector=None, depth: int | None = None):
        self.selector = selector
        self.depth = depth
        super().__init__(message)


# -- parsing ----------------------------------------------------------------

class _Parser:
    """Recursive descent over the grammar

        formula := imp ; imp := or ("->" imp)? ; or := and ("|" and)* ;
        and := unary ("&" unary)* ; unary := "~" unary | "p" DIGITS | "(" formula ")"
    """

    def __init__(self, text: str, pos: int):
        self.text = text
        self.pos = pos

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.eat("->"):
            return Imp(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        node = self.conjunction()
        while self.peek() == "|":
            self.pos += 1
            node = Or(node, self.conjunction())
        return node

    def conjunction(self) -> Formula:
        node = self.unary()
        while self.peek() == "&":
            self.pos += 1
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
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
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise ParseError("atom needs a numeric index", self.pos, ("digit",))
            index = int(self.text[start:self.pos])
            if index < 1:
                raise ParseError("atom index 0 is not allowed", start, ("index >= 1",))
            return Atom(index)
        raise ParseError(f"unexpected {ch!r}" if ch else "unexpected end of input",
                         self.pos, ("~", "(", "p<digits>"))


def _parse_from(text: str, pos: int) -> Formula:
    p = _Parser(text, pos)
    node = p.formula()
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError(f"trailing input {text[p.pos:]!r}", p.pos)
    return node


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula; raises ParseError with offsets."""
    return _parse_from(text, 0)


def parse_sequent(text: str) -> Sequent:
    """Parse ``A1, ..., An |- B``; a bare formula, or nothing before
    ``|-``, is a premise-free sequent.  An empty premise between commas is a
    ParseError, and every ParseError offset counts from the start of
    ``text``."""
    turnstile = text.find("|-")
    if turnstile < 0:
        return Sequent((), parse(text))
    left = text[:turnstile]
    premises = []
    if left.strip():
        start = 0
        for part in left.split(","):
            end = start + len(part)
            if not part.strip():
                raise ParseError("empty premise", end)
            premises.append(_parse_from(text[:end], start))
            start = end + 1
    return Sequent(tuple(premises), _parse_from(text, turnstile + 2))


# -- rendering ---------------------------------------------------------------

_PRECEDENCE = {Imp: 1, Or: 2, And: 3, Neg: 4, Atom: 5}


def _render(f: Formula, parent_prec: int) -> str:
    prec = _PRECEDENCE[type(f)]
    if isinstance(f, Atom):
        return f"p{f.index}"
    if isinstance(f, Neg):
        return "~" + _render(f.child, prec)
    symbol = {And: "&", Or: "|", Imp: "->"}[type(f)]
    if isinstance(f, Imp):
        # binary operands of a conditional are always parenthesised
        text = (_render(f.left, _PRECEDENCE[Neg]) + f" {symbol} "
                + _render(f.right, _PRECEDENCE[Neg]))
    else:
        # left-associative chains
        text = _render(f.left, prec) + f" {symbol} " + _render(f.right, prec + 1)
    if prec < parent_prec:
        return f"({text})"
    return text


def render(f: Formula) -> str:
    """Parenthesis-light text; ``parse(render(f)) == f``."""
    return _render(f, 0)


def render_sequent(s: Sequent) -> str:
    if not s.premises:
        return render(s.conclusion)
    return ", ".join(render(p) for p in s.premises) + " |- " + render(s.conclusion)


# -- occurrence addressing ---------------------------------------------------

def subformula_at(f: Formula, path: OccurrencePath) -> Formula:
    from .seq import locate
    return locate(f, path)[0]


def all_paths(f: Formula) -> Iterator[tuple]:
    """Every valid path of f, root first, left to right."""
    from .seq import occurrences
    return (path for path, _, _ in occurrences(f))


def atom_occurrences(f: Formula) -> list:
    """All (path, atom index) pairs in left-to-right order."""
    from .seq import occurrences
    return [(path, node.index) for path, node, _ in occurrences(f)
            if type(node) is Atom]


def atoms_of(f: Formula) -> set:
    """Indices of the atoms occurring in f."""
    atoms = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            atoms.add(node.index)
        elif isinstance(node, Neg):
            stack.append(node.child)
        else:
            stack.append(node.left)
            stack.append(node.right)
    return atoms


def size(f: Formula) -> int:
    """Number of nodes (connectives plus atom occurrences)."""
    return sum(1 for _ in all_paths(f))
