import random

import pytest

from lericone import (Assignment, Sequent, brute_consequence, decide,
                      evaluate, falsifies, parse, parse_sequent)
from lericone.generate import exhaustive_formulas, random_formula
from lericone.formula import size
from lericone.tableau import (Triple, extensions_of, extract_countermodel,
                              initial_tableau, prove, replay, saturate)

from conftest import F


def formula_sequent(text):
    return Sequent((), parse(text))


def replace(record, **changes):
    """A copy of ``record`` with the named fields changed."""
    return type(record)(**{field: changes.pop(field, getattr(record, field))
                           for field in record._fields}, **changes)


def test_initial_tableau_examples():
    t = initial_tableau(formula_sequent("p1 -> p1"))
    assert t.branches[0].triples == [Triple("", 0, F("p1 -> p1"))]

    t = initial_tableau(parse_sequent("p1 |- p2"))
    assert t.branches[0].triples == [Triple("", 1, F("p1")), Triple("", 0, F("p2"))]

    t = initial_tableau(parse_sequent("p1, p2 |- p1 & p2"))
    assert len(t.branches[0].triples) == 3


def test_expansion_steps():
    t = saturate(initial_tableau(formula_sequent("p1 -> ~~p1")))
    rules = [step.rule for step in t.steps]
    assert rules == ["Negative Conditional Rule, ε case",
                     "Negative Negation Rule",
                     "Positive Negation Rule"]
    branch = t.branches[0]
    assert Triple("c", 1, F("p1")) in branch.members
    assert Triple("nnc", 0, F("p1")) in branch.members


def test_disjunction_splits():
    t = initial_tableau(Sequent((F("p1 | p2"),), F("p3")))
    saturate(t)
    assert len(t.branches) == 2
    assert Triple("", 1, F("p1")) in t.branches[0].members
    assert Triple("", 1, F("p2")) in t.branches[1].members


def test_prove_examples():
    result = prove(formula_sequent("p1 -> p1"))
    assert result.status == "valid"
    witness = result.proof.witnesses[0][1]
    assert witness.positive == Triple("c", 1, F("p1"))
    assert witness.negative == Triple("c", 0, F("p1"))

    plain = prove(formula_sequent("p1 -> ~~p1"))
    assert plain.status == "invalid"
    assert plain.countermodel.entries == {("c", 1): 1}
    assert evaluate(plain.countermodel, "", F("p1 -> ~~p1")) == 0

    faithful = prove(formula_sequent("p1 -> ~~p1"), "faithful")
    assert faithful.status == "valid"
    closing = [w for _, w in faithful.proof.witnesses]
    assert any(w.common_key == "c" for w in closing)

    assert prove(formula_sequent("(p1 -> p2) | (p2 -> p3)")).status == "valid"


def test_extract_countermodel_requires_saturated_open_branch():
    t = saturate(initial_tableau(formula_sequent("p1 -> p1")))
    with pytest.raises(ValueError):
        extract_countermodel(t.branches[0], "plain", formula_sequent("p1 -> p1"))

    t2 = initial_tableau(formula_sequent("p1 -> ~~p1"))
    with pytest.raises(ValueError):
        extract_countermodel(t2.branches[0], "plain", formula_sequent("p1 -> ~~p1"))


def test_extract_countermodel_empty_branch_defaults():
    bare = prove(formula_sequent("p1"))
    assert bare.status == "invalid"
    assert bare.countermodel.entries == {} and bare.countermodel.default == 0

    s = parse_sequent("|- ~p1")
    result = prove(s)
    assert result.status == "invalid"
    assert result.countermodel.entries == {("n", 1): 1}

    s2 = formula_sequent("p1 -> p2")
    model = prove(s2, "faithful").countermodel
    assert model.entries == {("c", 1): 1}
    assert falsifies(model, s2)


def domain_keys_for(triple):
    from lericone import domain_keys
    return domain_keys(triple.formula, triple.seq)


def test_conformance_invariant():
    """An assignment satisfying a triple satisfies at least one extension
    group wholesale, and conversely."""
    rng = random.Random(83)
    for _ in range(300):
        f = random_formula(rng, (1, 2), rng.randint(1, 5))
        seq = rng.choice(["", "c", "n", "nc", "lc", "nnc"])
        sign = rng.randint(0, 1)
        triple = Triple(seq, sign, f)
        groups = extensions_of(triple)[1]
        table = {}
        for group in groups:
            for t in group:
                for key in domain_keys_for(t):
                    table.setdefault(key, rng.randint(0, 1))
        assignment = Assignment(table, default=rng.randint(0, 1))
        holds = evaluate(assignment, seq, f) == sign
        some_group = any(all(evaluate(assignment, t.seq, t.formula) == t.sign
                             for t in group)
                         for group in groups)
        assert holds == some_group


def test_termination_bound():
    for f in exhaustive_formulas(3, (1, 2)):
        s = Sequent((), f)
        bound = sum(size(g) for g in s.formulas)
        for mode in ("plain", "faithful"):
            t = saturate(initial_tableau(s, mode))
            for branch in t.branches:
                assert len(branch.triples) <= bound


def test_proof_objects_are_canonical():
    s = formula_sequent("(p1 -> p2) | (p2 -> p3)")
    first = prove(s)
    second = prove(s)
    assert first.proof == second.proof
    assert [step.rule for step in first.proof.steps] == [
        "Negative Disjunction Rule",
        "Negative Conditional Rule, ε case",
        "Negative Conditional Rule, ε case",
    ]
    # both branches close on the shared middle atom at key c
    for _, witness in first.proof.witnesses:
        assert witness.positive == Triple("c", 1, F("p2"))
        assert witness.negative == Triple("c", 0, F("p2"))


def test_closed_proofs_replay():
    rng = random.Random(89)
    count = 0
    for _ in range(300):
        f = random_formula(rng, (1, 2), rng.randint(1, 7))
        for mode in ("plain", "faithful"):
            result = prove(Sequent((), f), mode)
            if result.proof is None:
                continue
            count += 1
            proof = result.proof
            assert replay(proof)
            (ident, witness), *others = proof.witnesses
            tampered = [
                replace(proof, witnesses=(
                    (ident, replace(witness, positive=Triple("nnnn", 1, F("p1")))),
                    *others)),
                replace(proof, mode="faithful" if mode == "plain" else "plain"),
            ]
            if proof.steps:
                first = proof.steps[0]
                (ident, added), *rest = first.results
                wrong = (Triple("nnnn", 1, F("p1")),) + added[1:]
                for tampered_step in (
                        replace(first, triple=Triple("nnnn", 1, F("p1 & p1"))),
                        replace(first, rule="Positive Negation Rule"),
                        replace(first, results=((ident, wrong), *rest))):
                    tampered.append(replace(proof, steps=(tampered_step,) + proof.steps[1:]))
                # the last step dropped, or repeated at the end
                tampered.append(replace(proof, steps=proof.steps[:-1]))
                tampered.append(replace(proof, steps=proof.steps + proof.steps[-1:]))
            for bad in tampered:
                assert not replay(bad)
    assert count >= 30


def test_prove_stops_at_the_verdict():
    """prove agrees with a full saturation: same verdict, the countermodel of
    its first open branch, and for valid sequents the same steps."""
    rng = random.Random(151)
    for _ in range(500):
        premises = tuple(random_formula(rng, (1, 2, 3), rng.randint(0, 5))
                         for _ in range(rng.randint(0, 2)))
        s = Sequent(premises, random_formula(rng, (1, 2, 3), rng.randint(0, 6)))
        for mode in ("plain", "faithful"):
            result = prove(s, mode)
            full = saturate(initial_tableau(s, mode))
            open_branches = [b for b in full.branches if b.is_open]
            assert result.status == ("invalid" if open_branches else "valid")
            if open_branches:
                assert result.countermodel == extract_countermodel(
                    open_branches[0], mode, s)
                assert len(result.tableau.steps) <= len(full.steps)
            else:
                assert result.proof.steps == tuple(full.steps)


@pytest.mark.parametrize("mode", ["plain", "faithful"])
@pytest.mark.parametrize("text, proved, saturated", [
    ("p1 | (p2 & p3) |- p4", 1, 2),
    ("p1 | p2 |- p1 & (p3 | p4)", 3, 5),
])
def test_prove_step_counts(mode, text, proved, saturated):
    s = parse_sequent(text)
    result = prove(s, mode)
    assert result.status == "invalid"
    assert len(result.tableau.steps) == proved
    assert len(saturate(initial_tableau(s, mode)).steps) == saturated


def test_faithful_open_branches_have_consistent_closures():
    rng = random.Random(97)
    for _ in range(200):
        f = random_formula(rng, (1, 2), rng.randint(1, 6))
        result = prove(Sequent((), f), "faithful")
        if result.status == "invalid":
            t = result.tableau
            open_branches = [b for b in t.branches if b.is_open]
            assert open_branches
            branch = open_branches[0]
            atoms = [t2 for t2 in branch.triples if hasattr(t2.formula, "index")]
            from lericone import faithful_key
            for a in atoms:
                for b in atoms:
                    if (a.formula == b.formula and a.sign != b.sign):
                        assert faithful_key(a.seq) != faithful_key(b.seq)


def test_tableau_agrees_with_other_methods_small_corpus():
    for f in exhaustive_formulas(3, (1, 2)):
        s = Sequent((), f)
        for mode in ("plain", "faithful"):
            statuses = {prove(s, mode).status,
                        brute_consequence(s, mode).status,
                        decide(s, mode).status}
            assert len(statuses) == 1, (f, mode)


def test_tableau_with_premises():
    assert prove(parse_sequent("p1 & p2 |- p1")).status == "valid"
    assert prove(parse_sequent("p1, p1 -> p2 |- p2")).status == "invalid"
    result = prove(parse_sequent("p1 |- p2"))
    assert result.status == "invalid"
    assert falsifies(result.countermodel, parse_sequent("p1 |- p2"))


def test_methods_agree_on_random_sequents_with_premises():
    rng = random.Random(139)
    for _ in range(300):
        premises = tuple(random_formula(rng, (1, 2), rng.randint(0, 4))
                         for _ in range(rng.randint(1, 2)))
        s = Sequent(premises, random_formula(rng, (1, 2), rng.randint(0, 4)))
        for mode in ("plain", "faithful"):
            statuses = {prove(s, mode).status,
                        brute_consequence(s, mode).status,
                        decide(s, mode).status}
            assert len(statuses) == 1, (s, mode)


def test_cancelled_double_negation_over_premises():
    # a premise under an even negation chain reaches the same faithful
    # keys as the root conclusion, so detachment through double negation
    # holds faithfully while staying invalid in plain mode
    s = parse_sequent("~~(p1 -> p2) |- p1 -> p2")
    assert prove(s, "faithful").status == "valid"
    assert brute_consequence(s, "faithful").status == "valid"
    assert decide(s, "faithful").status == "valid"
    assert prove(s, "plain").status == "invalid"
