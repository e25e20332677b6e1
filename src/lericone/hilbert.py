"""Hilbert-style proof checking and the substitution proof transformer.

Two systems are supported.  The weaker one ("BM") has axioms A1-A8 with
rules R1-R4; the stronger one ("B") adds double-negation elimination (A9)
and the contraposition rule R5.  Proofs are theorem proofs: every line is
an axiom instance or a rule application on earlier lines, never an open
premise.

Two tables define the calculus: ``_RULES`` gives each rule its conclusion
and the substitution each premise is transformed under (and so its
arity), ``_LOGICS`` each logic's axioms and rules and whether a transform
needs a faithful substitution.  Checker, transformer and generator read them.

``transform_proof`` rebuilds a proof of the image of its conclusion under
a sequence-indexed substitution.  Axiom instances map to instances of the
same axiom.  Rule applications recurse on each premise under its context:
modus ponens transforms its major premise with
:func:`lericone.substitution.t_of`, the negation rules graft an ``n``
context with :func:`lericone.substitution.shift`, and the affixing rule
grafts ``l`` and ``r``.  For proofs in B the substitution must be
faithful: the A9 and R5 cases equate images at keys that differ by a
cancelled double negation.  A premise used twice is restated twice in
the output, as in the paper's construction, but each (line,
substitution) pair is rebuilt once: later uses replay its block of
output lines with renumbered premises.  The rebuild runs on an explicit
stack, so proof depth meets no recursion limit; its memo keys by
substitution value.  ``check_proof`` on the result is its only verifier;
a replayed line restates the formula objects of the block it copies, so
``check_proof`` passes it on a set probe.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .formula import And, Atom, Formula, Imp, Neg, Or, Record, render
from .substitution import LericoneSubstitution, apply_lericone, shift, t_of

__all__ = [
    "AxiomRef", "RuleRef", "ProofLine", "HilbertProof", "ProofCheckError",
    "AXIOM_SCHEMAS", "match_axiom", "check_proof", "transform_proof",
    "conclusion",
]

_A, _B, _C = Atom(1), Atom(2), Atom(3)

# Schema templates; the atoms 1..3 are metavariable slots A, B, C.  The
# order sets which schema match_axiom reports first.
AXIOM_SCHEMAS = (
    ("A1", Imp(_A, _A)),
    ("A2", Imp(And(_A, _B), _A)),
    ("A2", Imp(And(_A, _B), _B)),
    ("A3", Imp(_A, Or(_A, _B))),
    ("A3", Imp(_B, Or(_A, _B))),
    ("A4", Imp(And(_A, Or(_B, _C)), Or(And(_A, _B), And(_A, _C)))),
    ("A5", Imp(And(Imp(_A, _B), Imp(_A, _C)), Imp(_A, And(_B, _C)))),
    ("A6", Imp(And(Imp(_A, _C), Imp(_B, _C)), Imp(Or(_A, _B), _C))),
    ("A7", Imp(Neg(And(_A, _B)), Or(Neg(_A), Neg(_B)))),
    ("A8", Imp(And(Neg(_A), Neg(_B)), Neg(Or(_A, _B)))),
    ("A9", Imp(Neg(Neg(_A)), _A)),
)

_METAVAR_NAMES = {1: "A", 2: "B", 3: "C"}


def _same(sub):
    return sub


def _graft(context: str):
    return lambda sub: shift(sub, context)


# rule -> (its conclusion on the premise formulas, or None if they do not
# fit; the substitution each premise is transformed under)
_RULES = {
    "R1": (lambda a, b: And(a, b), (_same, _same)),
    "R2": (lambda a, b: b.right if isinstance(b, Imp) and b.left == a else None,
           (_same, t_of)),
    "R3": (lambda a: Imp(Neg(a.right), Neg(a.left)) if isinstance(a, Imp) else None,
           (_graft("n"),)),
    "R4": (lambda a, b: Imp(Imp(a.right, b.left), Imp(a.left, b.right))
           if isinstance(a, Imp) and isinstance(b, Imp) else None,
           (_graft("l"), _graft("r"))),
    "R5": (lambda a: Imp(a.right.child, Neg(a.left))
           if isinstance(a, Imp) and isinstance(a.right, Neg) else None,
           (_graft("n"),)),
}


class _Logic(NamedTuple):
    axioms: frozenset
    rules: frozenset
    faithful: bool  # a transform needs a faithful substitution


_BM_AXIOMS = frozenset(("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"))
_LOGICS = {
    "BM": _Logic(_BM_AXIOMS, frozenset(("R1", "R2", "R3", "R4")), False),
    "B": _Logic(_BM_AXIOMS | {"A9"}, frozenset(_RULES), True),
}
_AXIOM_IDS = frozenset(aid for aid, _ in AXIOM_SCHEMAS)


def _logic(name) -> _Logic:
    try:
        return _LOGICS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown logic {name!r}") from None


class AxiomRef(Record):
    __slots__ = _fields = ("axiom",)
    axiom: str  # "A1" .. "A9"

    def __init__(self, axiom: str) -> None:
        object.__setattr__(self, "axiom", axiom)


class RuleRef(Record):
    __slots__ = _fields = ("rule", "premises")
    rule: str  # "R1" .. "R5"
    premises: tuple  # 0-based indices of earlier lines

    def __init__(self, rule: str, premises: tuple) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "premises", premises)


class ProofLine(Record):
    __slots__ = _fields = ("formula", "just")
    just: object  # AxiomRef | RuleRef

    def __init__(self, formula: Formula, just) -> None:
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "just", just)


class HilbertProof(Record):
    __slots__ = _fields = ("logic", "lines")
    logic: str  # "BM" | "B"

    def __init__(self, logic: str, lines: tuple) -> None:
        _logic(logic)
        lines = tuple(lines)
        if not lines:
            raise ValueError("a proof needs at least one line")
        object.__setattr__(self, "logic", logic)
        object.__setattr__(self, "lines", lines)


def conclusion(pr: HilbertProof) -> Formula:
    return pr.lines[-1].formula


class ProofCheckError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line + 1}: {message}")


def _match(template: Formula, f: Formula, bind: dict) -> bool:
    if isinstance(template, Atom):
        if template.index in bind:
            return bind[template.index] == f
        bind[template.index] = f
        return True
    if type(template) is not type(f):
        return False
    if isinstance(template, Neg):
        return _match(template.child, f.child, bind)
    return _match(template.left, f.left, bind) and _match(template.right, f.right, bind)


def _instances(f: Formula, axioms):
    """(axiom id, bind) per schema among ``axioms`` that ``f`` instantiates."""
    for axiom_id, template in AXIOM_SCHEMAS:
        bind: dict = {}
        if axiom_id in axioms and _match(template, f, bind):
            yield axiom_id, bind


def match_axiom(f: Formula, logic: str = "BM") -> Optional[tuple]:
    """First matching schema in A1..A9 order with its instantiation.

    Only the logic's own axioms count, so A9 only in B.  Returns
    (axiom id, {metavariable: formula}) or None.
    """
    for axiom_id, bind in _instances(f, _logic(logic).axioms):
        return axiom_id, {_METAVAR_NAMES[i]: g for i, g in bind.items()}
    return None


def check_proof(pr: HilbertProof) -> None:
    """Validate every line; raises ProofCheckError naming the first bad line.

    A line whose formula, justification and premise formulas are the very
    objects of a line that passed earlier in the call is not checked again;
    premise references are range-checked on every line first.
    """
    logic = _LOGICS[pr.logic]
    # (id(formula), axiom) or (id(formula), rule, id(premise)...) per line
    # that passed; pr.lines keeps every such formula, so no id is reused
    passed: set = set()
    for i, line in enumerate(pr.lines):
        just = line.just
        if isinstance(just, AxiomRef):
            if just.axiom not in _AXIOM_IDS:
                raise ProofCheckError(i, f"unknown axiom {just.axiom!r}")
            if just.axiom not in logic.axioms:
                raise ProofCheckError(
                    i, f"{just.axiom} is not available in {pr.logic}")
            key = (id(line.formula), just.axiom)
            if key not in passed and not any(_instances(line.formula, (just.axiom,))):
                raise ProofCheckError(
                    i, f"{render(line.formula)} is not an instance of {just.axiom}")
        elif isinstance(just, RuleRef):
            if just.rule not in _RULES:
                raise ProofCheckError(i, f"unknown rule {just.rule!r}")
            if just.rule not in logic.rules:
                raise ProofCheckError(
                    i, f"{just.rule} is not available in {pr.logic}")
            conclude, contexts = _RULES[just.rule]
            if len(just.premises) != len(contexts):
                raise ProofCheckError(
                    i, f"{just.rule} takes {len(contexts)} premises")
            for ref in just.premises:
                if not 0 <= ref < i:
                    raise ProofCheckError(i, f"premise reference {ref + 1} is not "
                                             "an earlier line")
            premises = [pr.lines[ref].formula for ref in just.premises]
            key = (id(line.formula), just.rule, *map(id, premises))
            if key in passed:
                continue
            expected = conclude(*premises)
            if expected is None:
                raise ProofCheckError(
                    i, f"premises do not fit the shape of {just.rule}")
            if expected != line.formula:
                raise ProofCheckError(
                    i, f"{just.rule} yields {render(expected)}, "
                       f"line states {render(line.formula)}")
        else:
            raise ProofCheckError(i, f"unknown justification {just!r}")
        passed.add(key)


def transform_proof(pr: HilbertProof, s) -> HilbertProof:
    """Proof of the substitution image of the conclusion, same logic.

    Requires a checked proof and a finite table, a
    :class:`~lericone.substitution.LericoneSubstitution`; anything else,
    such as ``star(...)`` or ``godel_substitution()``, raises ``TypeError``.
    For logic B the table must be faithful, otherwise the A9 and R5 cases
    cannot be discharged.

    Lines come out in the order of a recursive rebuild: each premise's
    block, left to right, then the line itself.  The first visit of a
    (line, substitution) pair computes its block; a repeat visit copies
    it, shifting the copied premise references.  Substitutions key by
    value, each premise's substitution is derived once per (substitution,
    context), and the closing ``check_proof`` alone verifies the result.
    """
    if not isinstance(s, LericoneSubstitution):
        raise TypeError("transform_proof needs a finite substitution table "
                        f"(LericoneSubstitution), got {type(s).__name__}")
    check_proof(pr)
    if _LOGICS[pr.logic].faithful and not s.is_faithful:
        raise ValueError(f"transforming a {pr.logic} proof requires a "
                         "faithful substitution")

    out: list = []
    blocks: dict = {}  # (line, substitution) -> its first and last output line
    derived_subs: dict = {}  # (substitution, context) -> premise substitution
    # Each frame rebuilds one line under one substitution after its premises,
    # left to right, as a recursive rebuild would, but with no depth limit.
    frames: list = []

    def enter(index: int, sub, into: list) -> None:
        """Open a frame rebuilding (index, sub), or replay the block it got
        before; either way its last output line is appended to ``into``."""
        block = blocks.get((index, sub))
        if block is None:
            frames.append((index, sub, len(out), [], into))
            return
        first, last = block
        offset = len(out) - first
        for line in out[first:last + 1]:
            if isinstance(line.just, RuleRef):
                line = ProofLine(line.formula, RuleRef(
                    line.just.rule, tuple(ref + offset for ref in line.just.premises)))
            out.append(line)
        into.append(len(out) - 1)

    enter(len(pr.lines) - 1, s, [])
    while frames:
        index, sub, first, premises, into = frames[-1]
        line = pr.lines[index]
        just = line.just
        if isinstance(just, RuleRef) and len(premises) < len(just.premises):
            context = _RULES[just.rule][1][len(premises)]
            if (sub, context) not in derived_subs:
                derived_subs[sub, context] = context(sub)
            enter(just.premises[len(premises)], derived_subs[sub, context], premises)
            continue
        frames.pop()
        if isinstance(just, RuleRef):
            just = RuleRef(just.rule, tuple(premises))
        out.append(ProofLine(apply_lericone(sub, "", line.formula), just))
        blocks[index, sub] = (first, len(out) - 1)
        into.append(len(out) - 1)
    result = HilbertProof(pr.logic, tuple(out))
    check_proof(result)
    return result
