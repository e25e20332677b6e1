"""Hilbert-style proof checking and the substitution proof transformer.

Two systems are supported.  The weaker one has axioms A1-A8 with rules
R1-R4; the stronger one ("B") adds double-negation elimination (A9) and
the contraposition rule R5.  Proofs are theorem proofs: every line is an
axiom instance or a rule application on earlier lines, never an open
premise.

``transform_proof`` rebuilds a proof of the image of its conclusion under
a sequence-indexed substitution.  Axiom instances map to instances of the
same axiom.  Rule applications recurse with adjusted substitutions: modus
ponens transforms its major premise with :func:`lericone.substitution.t_of`,
the negation rules graft an ``n`` context with
:func:`lericone.substitution.shift`, and the affixing rule grafts ``l``
and ``r``.  For proofs in B the substitution must be faithful: the A9 and
R5 cases equate images at keys that differ by a cancelled double
negation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formula import And, Atom, Formula, Imp, Neg, Or, render
from .substitution import apply_lericone, shift, t_of

__all__ = [
    "AxiomRef", "RuleRef", "ProofLine", "HilbertProof", "ProofCheckError",
    "AXIOM_SCHEMAS", "match_axiom", "check_proof", "transform_proof",
    "conclusion",
]

_A, _B, _C = Atom(1), Atom(2), Atom(3)

# Schema templates; the atoms 1..3 are metavariable slots A, B, C.
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
_RULE_ARITY = {"R1": 2, "R2": 2, "R3": 1, "R4": 2, "R5": 1}


@dataclass(frozen=True)
class AxiomRef:
    axiom: str  # "A1" .. "A9"


@dataclass(frozen=True)
class RuleRef:
    rule: str  # "R1" .. "R5"
    premises: tuple  # 0-based indices of earlier lines


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    just: object  # AxiomRef | RuleRef


@dataclass(frozen=True)
class HilbertProof:
    logic: str  # "BM" | "B"
    lines: tuple

    def __post_init__(self) -> None:
        if self.logic not in ("BM", "B"):
            raise ValueError(f"unknown logic {self.logic!r}")
        object.__setattr__(self, "lines", tuple(self.lines))
        if not self.lines:
            raise ValueError("a proof needs at least one line")


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


def match_axiom(f: Formula, logic: str = "BM") -> Optional[tuple]:
    """First matching schema in A1..A9 order with its instantiation.

    A9 is only available in B.  Returns (axiom id, {metavariable: formula})
    or None.
    """
    for axiom_id, template in AXIOM_SCHEMAS:
        if axiom_id == "A9" and logic != "B":
            continue
        bind: dict = {}
        if _match(template, f, bind):
            return axiom_id, {_METAVAR_NAMES[i]: g for i, g in bind.items()}
    return None


def _matches_axiom_id(f: Formula, axiom_id: str) -> bool:
    return any(_match(template, f, {})
               for aid, template in AXIOM_SCHEMAS if aid == axiom_id)


def _rule_conclusion(rule: str, premises: list) -> Optional[Formula]:
    """Conclusion shape of a rule on the given premise formulas, or None."""
    if rule == "R1":
        return And(premises[0], premises[1])
    if rule == "R2":
        major = premises[1]
        if isinstance(major, Imp) and major.left == premises[0]:
            return major.right
        return None
    if rule == "R3":
        prem = premises[0]
        if isinstance(prem, Imp):
            return Imp(Neg(prem.right), Neg(prem.left))
        return None
    if rule == "R4":
        first, second = premises
        if isinstance(first, Imp) and isinstance(second, Imp):
            return Imp(Imp(first.right, second.left), Imp(first.left, second.right))
        return None
    if rule == "R5":
        prem = premises[0]
        if isinstance(prem, Imp) and isinstance(prem.right, Neg):
            return Imp(prem.right.child, Neg(prem.left))
        return None
    raise ValueError(f"unknown rule {rule!r}")


def check_proof(pr: HilbertProof) -> None:
    """Validate every line; raises ProofCheckError naming the first bad line."""
    for i, line in enumerate(pr.lines):
        just = line.just
        if isinstance(just, AxiomRef):
            if just.axiom not in {aid for aid, _ in AXIOM_SCHEMAS}:
                raise ProofCheckError(i, f"unknown axiom {just.axiom!r}")
            if just.axiom == "A9" and pr.logic != "B":
                raise ProofCheckError(i, "A9 is not available in BM")
            if not _matches_axiom_id(line.formula, just.axiom):
                raise ProofCheckError(
                    i, f"{render(line.formula)} is not an instance of {just.axiom}")
        elif isinstance(just, RuleRef):
            if just.rule not in _RULE_ARITY:
                raise ProofCheckError(i, f"unknown rule {just.rule!r}")
            if just.rule == "R5" and pr.logic != "B":
                raise ProofCheckError(i, "R5 is not available in BM")
            if len(just.premises) != _RULE_ARITY[just.rule]:
                raise ProofCheckError(
                    i, f"{just.rule} takes {_RULE_ARITY[just.rule]} premises")
            for ref in just.premises:
                if not 0 <= ref < i:
                    raise ProofCheckError(i, f"premise reference {ref + 1} is not "
                                             "an earlier line")
            formulas = [pr.lines[ref].formula for ref in just.premises]
            expected = _rule_conclusion(just.rule, formulas)
            if expected is None:
                raise ProofCheckError(
                    i, f"premises do not fit the shape of {just.rule}")
            if expected != line.formula:
                raise ProofCheckError(
                    i, f"{just.rule} yields {render(expected)}, "
                       f"line states {render(line.formula)}")
        else:
            raise ProofCheckError(i, f"unknown justification {just!r}")


def transform_proof(pr: HilbertProof, s) -> HilbertProof:
    """Proof of the substitution image of the conclusion, same logic.

    Requires a checked proof; for logic B the substitution must be
    faithful, otherwise the A9 and R5 cases cannot be discharged.
    """
    check_proof(pr)
    if pr.logic == "B" and not s.is_faithful:
        raise ValueError("transforming a B proof requires a faithful substitution")

    out: list = []

    def emit(formula: Formula, just) -> int:
        out.append(ProofLine(formula, just))
        return len(out) - 1

    def rec(index: int, sub) -> int:
        line = pr.lines[index]
        target = apply_lericone(sub, "", line.formula)
        just = line.just
        if isinstance(just, AxiomRef):
            if not _matches_axiom_id(target, just.axiom):
                raise AssertionError(
                    f"image {render(target)} is not an instance of {just.axiom}; "
                    "the substitution does not respect the logic")
            return emit(target, AxiomRef(just.axiom))
        if just.rule == "R1":
            a = rec(just.premises[0], sub)
            b = rec(just.premises[1], sub)
            new_just = RuleRef("R1", (a, b))
        elif just.rule == "R2":
            a = rec(just.premises[0], sub)
            b = rec(just.premises[1], t_of(sub))
            new_just = RuleRef("R2", (a, b))
        elif just.rule == "R3":
            a = rec(just.premises[0], shift(sub, "n"))
            new_just = RuleRef("R3", (a,))
        elif just.rule == "R4":
            a = rec(just.premises[0], shift(sub, "l"))
            b = rec(just.premises[1], shift(sub, "r"))
            new_just = RuleRef("R4", (a, b))
        else:  # R5
            a = rec(just.premises[0], shift(sub, "n"))
            new_just = RuleRef("R5", (a,))
        derived = _rule_conclusion(new_just.rule,
                                   [out[ref].formula for ref in new_just.premises])
        if derived != target:
            raise AssertionError(
                f"{just.rule} on transformed premises yields "
                f"{render(derived) if derived else derived}, expected {render(target)}")
        return emit(target, new_just)

    rec(len(pr.lines) - 1, s)
    result = HilbertProof(pr.logic, tuple(out))
    check_proof(result)
    return result
