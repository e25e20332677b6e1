"""Seeded random and exhaustive generators for formulas, substitutions,
and Hilbert proofs.  Shared by the self-test command and the test suite."""

from __future__ import annotations

import random
from itertools import count, product

from .formula import _BINARY, Atom, Formula, Imp, Neg, Or
from .hilbert import (_RULES, AXIOM_SCHEMAS, AxiomRef, HilbertProof,
                      ProofLine, RuleRef, _logic, match_axiom)
from .seq import faithful_key
from .substitution import LericoneSubstitution, apply_plain

__all__ = [
    "random_formula", "random_sequence", "random_substitution",
    "random_proof", "exhaustive_formulas",
]

_CONNECTIVES = tuple(node for _, node in _BINARY.values())  # And, Or, Imp


def random_formula(rng: random.Random, atoms=(1, 2, 3),
                   connectives: int = 4) -> Formula:
    """Random shape with exactly the given connective count."""
    if connectives == 0:
        return Atom(rng.choice(atoms))
    kind = rng.choice((Neg,) + _CONNECTIVES)
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
    axioms = _logic(logic).axioms
    _, template = rng.choice([(aid, tmpl) for aid, tmpl in AXIOM_SCHEMAS
                              if aid in axioms])
    bind = {i: random_formula(rng, atoms, rng.randint(0, size))
            for i in (1, 2, 3)}
    return apply_plain(bind, template)


def random_proof(rng: random.Random, logic: str = "BM", steps: int = 8,
                 atoms=(1, 2), size: int = 1) -> HilbertProof:
    """Grow a proof by random axiom instances and applicable rule moves."""
    lines: list = []

    def axiom(formula: Formula) -> int:
        matched = match_axiom(formula, logic)
        if matched is None:
            raise AssertionError("generated instance matches no axiom")
        lines.append(ProofLine(formula, AxiomRef(matched[0])))
        return len(lines) - 1

    def apply(rule: str, premises: tuple) -> None:
        formulas = [lines[i].formula for i in premises]
        lines.append(ProofLine(_RULES[rule][0](*formulas), RuleRef(rule, premises)))

    axiom(_axiom_instance(rng, logic, atoms, size))
    moves = [m for m in ("axiom", "R1", "R2-refl", "R2", "R3", "R4", "R5", "R5-intro")
             if m == "axiom" or m[:2] in _logic(logic).rules]
    for _ in range(steps):
        move = rng.choice(moves)
        if move == "axiom":
            axiom(_axiom_instance(rng, logic, atoms, size))
        elif move == "R2-refl":
            # manufacture a usable major premise: X -> X or X -> X | B
            i = rng.randrange(len(lines))
            x = lines[i].formula
            if rng.random() < 0.5:
                major = Imp(x, x)
            else:
                major = Imp(x, Or(x, random_formula(rng, atoms, rng.randint(0, size))))
            apply("R2", (i, axiom(major)))
        elif move == "R5-intro":
            # contraposition fodder: from ~X -> ~X conclude X -> ~~X
            x = random_formula(rng, atoms, rng.randint(0, size))
            apply("R5", (axiom(Imp(Neg(x), Neg(x))),))
        elif move == "R2":
            conclude = _RULES["R2"][0]
            pairs = [(i, j) for i, j in product(range(len(lines)), repeat=2)
                     if conclude(lines[i].formula, lines[j].formula) is not None]
            if pairs:
                apply("R2", rng.choice(pairs))
        else:
            # R1, R3, R4 and R5 fit a premise list exactly when each premise
            # fits the rule on its own, so each is drawn from those lines
            conclude, contexts = _RULES[move]
            fits = [i for i, line in enumerate(lines)
                    if conclude(*[line.formula] * len(contexts)) is not None]
            if fits:
                apply(move, tuple(rng.choice(fits) for _ in contexts))
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
                    layer.extend(node(left, right) for node in _CONNECTIVES)
        by_count.append(layer)
        yield from layer
