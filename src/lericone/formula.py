"""Propositional formula AST, concrete syntax, and occurrence addressing.

Formulas are immutable values built from atoms ``p1, p2, ...`` (arbitrary
precision indices, >= 1) with negation ``~``, conjunction ``&``, disjunction
``|`` and the conditional ``->``, in slots on :class:`Record`, the base of
every record in the package.  Precedence is ``~ > & > | > ->``, from one
table (``_BINARY``) that parsing, rendering and ``lericone.generate`` share;
the conditional is right-associative, the lattice connectives left-associative.
The text syntax is bounded by the interpreter's limit on integer string
conversion (4,300 digits by default): ``parse`` and ``render`` reject a
longer index with a ``ValueError``.  The parser is one precedence loop
on an explicit stack, so parsing has no depth limit; ``render``, ``==``
and ``hash`` still recurse, and fail a few hundred levels down.  Every
parse hash-conses per call or document (see ``_parse_from``): equal
subformulas are one object, and ``==`` compares children as tuples,
which short-cut on identical items, so on them it does not descend.

Subformula occurrences are addressed by paths: tuples of child selectors,
``"only"`` for the child of a negation and ``"left"``/``"right"`` for the
children of binary nodes.  The empty path addresses the root.  Occurrence
addressing is delegated to ``seq.occurrences`` (the walk over every path)
and ``seq.locate`` (the descent along one); ``seq`` imports this module,
so the functions here import those two when called.
"""

from __future__ import annotations

import sys
from types import FunctionType
from typing import Iterator, Union

__all__ = [
    "Formula", "Atom", "Neg", "And", "Or", "Imp", "Sequent",
    "OccurrencePath", "ParseError", "PathError",
    "parse", "render", "parse_sequent", "render_sequent",
    "subformula_at", "atom_occurrences", "all_paths", "atoms_of", "size",
]


class Record:
    """Base of the package's records: immutable values in slots.

    A subclass names its fields in constructor order in ``_fields`` and
    ``__slots__``, and its ``__init__`` sets them with
    ``object.__setattr__``; a loop over ``_fields`` would make building
    a record, which most calls do dozens of times, about 60% slower.
    ``==`` and ``hash`` go by the field tuple, ``repr`` reads
    ``Name(field=value, ...)``, assignment and ``del`` raise
    ``AttributeError``, and pickle and copy rebuild through the
    constructor.  The formula nodes and ``tableau.Triple``, hashed and
    compared in every call, write ``==`` and ``hash`` out as well.
    """

    __slots__ = ()
    _fields: tuple = ()

    def _tuple(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._tuple() == other._tuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __setattr__(self, name: str, *_value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._tuple()


class Atom(Record):
    __slots__ = _fields = ("index",)

    def __init__(self, index: int) -> None:
        if index < 1:
            raise ValueError(f"atom index must be >= 1, got {index}")
        object.__setattr__(self, "index", index)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.index == other.index
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.index,))


class Neg(Record):
    __slots__ = _fields = ("child",)

    def __init__(self, child: "Formula") -> None:
        object.__setattr__(self, "child", child)

    def __eq__(self, other):
        # a tuple compares identical items without calling their __eq__
        if other.__class__ is self.__class__:
            return (self.child,) == (other.child,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.child,))


class _Binary(Record):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula") -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.left, self.right))

    def __init_subclass__(cls) -> None:
        # each connective runs its own copy of these methods: the
        # interpreter specialises attribute reads per code object for one
        # class, and a copy shared by three classes hashes 10% slower
        for name in ("__init__", "__eq__", "__hash__"):
            method = vars(_Binary)[name]
            setattr(cls, name, FunctionType(method.__code__.replace(),
                                            method.__globals__, name))


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


Formula = Union[Atom, Neg, And, Or, Imp]

OccurrencePath = tuple  # of "only" | "left" | "right"


class Sequent(Record):
    """Finitely many premises and one conclusion."""

    __slots__ = _fields = ("premises", "conclusion")

    def __init__(self, premises: tuple, conclusion: Formula) -> None:
        object.__setattr__(self, "premises", premises)
        object.__setattr__(self, "conclusion", conclusion)

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

_BINARY = {"&": (3, And), "|": (2, Or), "->": (1, Imp)}  # precedence, node
_PREFIX, _PER_PREFIX = 16, 4  # how an intern table indexes the texts it parsed


def _remember(whole: str, node: Formula, nodes: dict) -> None:
    """Record in an intern table that ``whole`` parsed to ``node``."""
    nodes[whole] = node
    if len(whole) >= _PREFIX:
        known = nodes.setdefault(("(", whole[:_PREFIX]), [])
        if len(known) < _PER_PREFIX:
            known.append(whole)


def _recall(text: str, pos: int, nodes: dict) -> tuple:
    """For an operand ``(T)`` at ``pos`` whose T an intern table saw parsed
    whole, T's formula and the offset after the ")"; else ``(None, pos)``.
    T parsed whole, so its parentheses balance and that ")" closes the "("."""
    for known in nodes.get(("(", text[pos + 1:pos + 1 + _PREFIX]), ()):
        after = pos + 1 + len(known)
        if text.startswith(known, pos + 1) and text.startswith(")", after):
            return nodes[known], after + 1
    return None, pos


def _parse_from(text: str, pos: int, nodes: dict) -> Formula:
    """Parse ``text[pos:]`` by operator precedence over the grammar

        formula := unary (("&" | "|" | "->") unary)* ;
        unary := "~" unary | "p" DIGITS | "(" formula ")"

    with ``_BINARY``'s precedences; ``->`` associates to the right.  One
    explicit stack holds each pending ``~`` and ``(`` and each binary
    operator with its left operand, so nesting meets no recursion limit.

    ``nodes`` is an intern table shared by the texts of one call or
    document: atoms key by index, other nodes by ``(type, id(child), ...)``,
    and each node is built once, so equal subformulas are one object.  The
    table holds every node it keys, so no id in it is reused while it lives.
    It also maps each text parsed whole to its formula, so a text that
    recurs, whole or as a parenthesised operand, is not parsed again.
    """
    if text[pos:] in nodes:
        return nodes[text[pos:]]
    first = pos
    stack: list = []
    node = None  # the operand just read; None while one is due
    end = len(text)
    while True:
        while pos < end and text[pos].isspace():
            pos += 1
        ch = text[pos:pos + 1]
        if node is None:
            if ch == "(":
                node, pos = _recall(text, pos, nodes)
                if node is not None:
                    continue
            if ch in ("~", "("):
                stack.append(ch)
                pos += 1
                continue
            if ch != "p":
                raise ParseError(f"unexpected {ch!r}" if ch else "unexpected end of input",
                                 pos, ("~", "(", "p<digits>"))
            pos = start = pos + 1
            # ASCII digits only: str.isdigit also accepts "²" and "١"
            while pos < end and text[pos] in "0123456789":
                pos += 1
            if pos == start:
                raise ParseError("atom needs a numeric index", pos, ("digit",))
            try:
                index = int(text[start:pos])
            except ValueError:  # past the interpreter's integer string limit
                raise ParseError("atom index too long", start,
                                 ("fewer digits",)) from None
            if index < 1:
                raise ParseError("atom index 0 is not allowed", start, ("index >= 1",))
            node = nodes.get(index) or nodes.setdefault(index, Atom(index))
            continue
        while stack and stack[-1] == "~":
            stack.pop()
            key = Neg, id(node)
            node = nodes.get(key) or nodes.setdefault(key, Neg(node))
        op = "->" if text.startswith("->", pos) else ch
        prec, make = _BINARY.get(op, (0, None))
        # close the operators that bind at least as tightly; "->" waits
        # for its right operand to close another "->"
        while stack and stack[-1] != "(" and stack[-1][0] >= prec + (op == "->"):
            _, close, left = stack.pop()
            key = close, id(left), id(node)
            node = nodes.get(key) or nodes.setdefault(key, close(left, node))
        if make is not None:
            stack.append((prec, make, node))
            pos += len(op)
            node = None
        elif stack:  # a "(" is open
            if ch != ")":
                raise ParseError("unbalanced parenthesis", pos, (")",))
            stack.pop()
            pos += 1
        elif pos < end:
            raise ParseError(f"trailing input {text[pos:]!r}", pos)
        else:
            _remember(text[first:], node, nodes)
            return node


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula, hash-consed with a table of its
    own; raises ParseError with offsets."""
    return _parse_from(text, 0, {})


def parse_sequent(text: str) -> Sequent:
    """Parse ``A1, ..., An |- B``; a bare formula, or nothing before
    ``|-``, is a premise-free sequent.  An empty premise between commas is a
    ParseError, and every ParseError offset counts from the start of
    ``text``.  Premises and conclusion share one intern table."""
    turnstile = text.find("|-")
    if turnstile < 0:
        return Sequent((), parse(text))
    left = text[:turnstile]
    premises = []
    nodes: dict = {}
    if left.strip():
        start = 0
        for part in left.split(","):
            end = start + len(part)
            if not part.strip():
                raise ParseError("empty premise", end)
            premises.append(_parse_from(text[:end], start, nodes))
            start = end + 1
    return Sequent(tuple(premises), _parse_from(text, turnstile + 2, nodes))


# -- rendering ---------------------------------------------------------------

# node -> (" symbol ", precedence), read off the parser's table; "~" binds at 4
_INFIX = {node: (f" {symbol} ", prec) for symbol, (prec, node) in _BINARY.items()}
_NEG = 4


def _render(f: Formula, parent_prec: int) -> str:
    kind = type(f)
    if kind is Atom:
        try:
            return f"p{f.index}"
        except ValueError:  # past the interpreter's integer string limit
            raise ValueError("atom index too long to render: more than "
                             f"{sys.get_int_max_str_digits():,} digits") from None
    if kind is Neg:
        return "~" + _render(f.child, _NEG)
    symbol, prec = _INFIX[kind]
    # a conditional parenthesises binary operands; "&" and "|" chain leftwards
    left, right = (_NEG, _NEG) if kind is Imp else (prec, prec + 1)
    text = _render(f.left, left) + symbol + _render(f.right, right)
    return f"({text})" if prec < parent_prec else text


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
