"""Seeded random and exhaustive generators for formulas, substitutions,
and Hilbert proofs.  Shared by the self-test command and the test suite."""

from __future__ import annotations

import random
from itertools import count

from .formula import And, Atom, Formula, Imp, Neg, Or
from .hilbert import (AXIOM_SCHEMAS, AxiomRef, HilbertProof, ProofLine,
                      RuleRef, match_axiom)
from .seq import faithful_key
from .substitution import LericoneSubstitution, apply_plain

__all__ = [
    "random_formula", "random_sequence", "random_substitution",
    "random_proof", "exhaustive_formulas",
]

_BINARY = (And, Or, Imp)


def random_formula(rng: random.Random, atoms=(1, 2, 3),
                   connectives: int = 4) -> Formula:
    """Random shape with exactly the given connective count."""
    if connectives == 0:
        return Atom(rng.choice(atoms))
    kind = rng.choice((Neg,) + _BINARY)
    if kind is Neg:
        return Neg(random_formula(rng, atoms, connectives - 1))
    left_budget = rng.randint(0, connectives - 1)
    return kind(random_formula(rng, atoms, left_budget),
                random_formula(rng, atoms, connectives - 1 - left_budget))


def random_sequence(rng: random.Random, max_len: int = 4,
                    allow_c: bool = True) -> str:
    word = "".join(rng.choice("lrn") for _ in range(rng.randint(0, max_len)))
    if allow_c and rng.random() < 0.6:
        return word + "c"
    return word


def random_substitution(rng: random.Random, keying: str = "raw",
                        entries: int = 4, atoms=(1, 2, 3),
                        image_size: int = 2) -> LericoneSubstitution:
    if keying == "plain":
        table = {rng.choice(atoms): random_formula(rng, atoms, rng.randint(0, image_size))
                 for _ in range(entries)}
        return LericoneSubstitution.plain(table)
    table = {}
    for _ in range(entries):
        seq, atom = random_sequence(rng), rng.choice(atoms)
        if keying == "faithful":
            # normalise up front so colliding keys overwrite, never conflict
            seq = faithful_key(seq)
        table[(seq, atom)] = random_formula(rng, atoms, rng.randint(0, image_size))
    return LericoneSubstitution(table, keying=keying)


def _axiom_instance(rng: random.Random, logic: str, atoms,
                    size: int) -> Formula:
    candidates = [(aid, tmpl) for aid, tmpl in AXIOM_SCHEMAS
                  if logic == "B" or aid != "A9"]
    _, template = rng.choice(candidates)
    bind = {i: random_formula(rng, atoms, rng.randint(0, size))
            for i in (1, 2, 3)}
    return apply_plain(bind, template)


def _axiom_ref(f: Formula, logic: str) -> AxiomRef:
    matched = match_axiom(f, logic)
    if matched is None:
        raise AssertionError("generated instance matches no axiom")
    return AxiomRef(matched[0])


def random_proof(rng: random.Random, logic: str = "BM", steps: int = 8,
                 atoms=(1, 2), size: int = 1) -> HilbertProof:
    """Grow a proof by random axiom instances and applicable rule moves."""
    lines: list = []

    def emit(formula: Formula, just) -> int:
        lines.append(ProofLine(formula, just))
        return len(lines) - 1

    first = _axiom_instance(rng, logic, atoms, size)
    emit(first, _axiom_ref(first, logic))

    moves = ["axiom", "R1", "R2-refl", "R2", "R3", "R4"]
    if logic == "B":
        moves += ["R5", "R5-intro"]
    for _ in range(steps):
        move = rng.choice(moves)
        if move == "axiom":
            inst = _axiom_instance(rng, logic, atoms, size)
            emit(inst, _axiom_ref(inst, logic))
        elif move == "R1":
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            emit(And(lines[i].formula, lines[j].formula), RuleRef("R1", (i, j)))
        elif move == "R2-refl":
            # manufacture a usable major premise: X -> X or X -> X | B
            i = rng.randrange(len(lines))
            x = lines[i].formula
            if rng.random() < 0.5:
                major = Imp(x, x)
            else:
                major = Imp(x, Or(x, random_formula(rng, atoms, rng.randint(0, size))))
            j = emit(major, _axiom_ref(major, logic))
            emit(major.right, RuleRef("R2", (i, j)))
        elif move == "R2":
            pairs = [(i, j) for i, a in enumerate(lines)
                     for j, b in enumerate(lines)
                     if isinstance(b.formula, Imp) and b.formula.left == a.formula]
            if not pairs:
                continue
            i, j = rng.choice(pairs)
            emit(lines[j].formula.right, RuleRef("R2", (i, j)))
        elif move == "R3":
            imps = [i for i, l in enumerate(lines) if isinstance(l.formula, Imp)]
            if not imps:
                continue
            i = rng.choice(imps)
            f = lines[i].formula
            emit(Imp(Neg(f.right), Neg(f.left)), RuleRef("R3", (i,)))
        elif move == "R4":
            imps = [i for i, l in enumerate(lines) if isinstance(l.formula, Imp)]
            if not imps:
                continue
            i, j = rng.choice(imps), rng.choice(imps)
            a, b = lines[i].formula, lines[j].formula
            emit(Imp(Imp(a.right, b.left), Imp(a.left, b.right)),
                 RuleRef("R4", (i, j)))
        elif move == "R5-intro":
            # contraposition fodder: from ~X -> ~X conclude X -> ~~X
            x = random_formula(rng, atoms, rng.randint(0, size))
            i = emit(Imp(Neg(x), Neg(x)), AxiomRef("A1"))
            emit(Imp(x, Neg(Neg(x))), RuleRef("R5", (i,)))
        else:  # R5
            shaped = [i for i, l in enumerate(lines)
                      if isinstance(l.formula, Imp) and isinstance(l.formula.right, Neg)]
            if not shaped:
                continue
            i = rng.choice(shaped)
            f = lines[i].formula
            emit(Imp(f.right.child, Neg(f.left)), RuleRef("R5", (i,)))
    return HilbertProof(logic, tuple(lines))


def exhaustive_formulas(max_connectives: int, atoms=(1, 2)):
    """All formulas with at most the given connective count, small first."""
    by_count: list = [[Atom(i) for i in atoms]]
    yield from by_count[0]
    for n in count(1):
        if n > max_connectives:
            return
        layer: list = []
        for child in by_count[n - 1]:
            layer.append(Neg(child))
        for left_size in range(n):
            right_size = n - 1 - left_size
            for left in by_count[left_size]:
                for right in by_count[right_size]:
                    layer.append(And(left, right))
                    layer.append(Or(left, right))
                    layer.append(Imp(left, right))
        by_count.append(layer)
        yield from layer
