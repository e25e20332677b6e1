import json
import random

import pytest

from lericone import (And, Imp, Neg, Sequent, apply_lericone, check_proof,
                      decide, match_axiom, parse, parse_sequent, render,
                      transform_proof, LericoneSubstitution)
from lericone import formula, hilbert, jsonio
from lericone.hilbert import (AxiomRef, HilbertProof, ProofCheckError,
                              ProofLine, RuleRef)
from lericone.generate import random_proof, random_substitution
from lericone.substitution import godel_substitution, shift, star, t_of
from lericone.relevance import lericone_sharing
from lericone.seq import occurrences
from lericone.tableau import prove

from conftest import F


def axiom_line(text, axiom):
    return ProofLine(parse(text), AxiomRef(axiom))


def test_match_axiom_examples():
    matched = match_axiom(F("(p2 & p3) -> (p2 & p3)"))
    assert matched == ("A1", {"A": F("p2 & p3")})

    matched = match_axiom(F("~(p1 & p2) -> (~p1 | ~p2)"))
    assert matched[0] == "A7"

    assert match_axiom(F("~~p1 -> p1"), "BM") is None
    assert match_axiom(F("~~p1 -> p1"), "B")[0] == "A9"
    with pytest.raises(ValueError, match="unknown logic"):
        match_axiom(F("p1 -> p1"), "BN")
    for logic in ("BN", ["B"]):
        with pytest.raises(ValueError, match="unknown logic"):
            HilbertProof(logic, (axiom_line("p1 -> p1", "A1"),))


def test_match_axiom_prefers_lowest_number():
    # p & p -> p matches both halves of A2; either way the id is A2
    matched = match_axiom(F("(p1 & p1) -> p1"))
    assert matched[0] == "A2"
    # A -> A | A is an A3 instance but A1 matches first when shapes allow
    assert match_axiom(F("p1 -> p1"))[0] == "A1"


def test_check_proof_accepts_axioms_and_rules():
    pr = HilbertProof("BM", (
        axiom_line("(p1 & p2) -> p1", "A2"),
        axiom_line("(p1 & p2) -> p2", "A2"),
        ProofLine(F("((p1 & p2) -> p1) & ((p1 & p2) -> p2)"), RuleRef("R1", (0, 1))),
    ))
    check_proof(pr)


def test_check_proof_rejects_wrong_r1_shape():
    pr = HilbertProof("BM", (
        axiom_line("(p1 & p2) -> p1", "A2"),
        axiom_line("(p1 & p2) -> p2", "A2"),
        ProofLine(F("(p1 & p2) -> (p1 & p2)"), RuleRef("R1", (0, 1))),
    ))
    with pytest.raises(ProofCheckError) as err:
        check_proof(pr)
    assert err.value.line == 2


def test_check_proof_has_no_premise_lines():
    # only axioms and rules justify lines; an unproven assumption cannot
    # be smuggled in as a rule application on itself
    pr = HilbertProof("BM", (
        ProofLine(F("p1"), RuleRef("R2", (0, 0))),
    ))
    with pytest.raises(ProofCheckError):
        check_proof(pr)


def test_check_proof_gates_logic_b():
    with pytest.raises(ProofCheckError):
        check_proof(HilbertProof("BM", (axiom_line("~~p1 -> p1", "A9"),)))
    check_proof(HilbertProof("B", (axiom_line("~~p1 -> p1", "A9"),)))

    contraposed = HilbertProof("BM", (
        axiom_line("p1 -> (p1 | ~p2)", "A3"),
        ProofLine(F("~(p1 | ~p2) -> ~p1"), RuleRef("R3", (0,))),
    ))
    check_proof(contraposed)
    r5 = HilbertProof("BM", (
        axiom_line("~p1 -> ~p1", "A1"),
        ProofLine(F("p1 -> ~~p1"), RuleRef("R5", (0,))),
    ))
    with pytest.raises(ProofCheckError):
        check_proof(r5)
    check_proof(HilbertProof("B", r5.lines))


def test_check_proof_rejects_forward_reference():
    pr = HilbertProof("BM", (
        ProofLine(F("p1 -> p1"), RuleRef("R3", (1,))),
        axiom_line("p1 -> p1", "A1"),
    ))
    with pytest.raises(ProofCheckError) as err:
        check_proof(pr)
    assert "earlier line" in str(err.value)


def test_check_proof_rejects_bad_instance():
    pr = HilbertProof("BM", (axiom_line("p1 -> p2", "A1"),))
    with pytest.raises(ProofCheckError) as err:
        check_proof(pr)
    assert "instance" in str(err.value)


def test_transform_axiom_instance():
    pr = HilbertProof("BM", (axiom_line("p1 -> p1", "A1"),))
    sigma = LericoneSubstitution({("c", 1): F("p2 & p3")})
    out = transform_proof(pr, sigma)
    assert out.lines[-1].formula == F("(p2 & p3) -> (p2 & p3)")
    check_proof(out)


def test_transform_through_contraposition():
    pr = HilbertProof("BM", (
        axiom_line("(p1 & p2) -> p1", "A2"),
        ProofLine(F("~p1 -> ~(p1 & p2)"), RuleRef("R3", (0,))),
    ))
    sigma = LericoneSubstitution({("nc", 1): F("p7"), ("nc", 2): F("p8")})
    out = transform_proof(pr, sigma)
    check_proof(out)
    assert out.lines[-1].formula == apply_lericone(sigma, "", pr.lines[-1].formula)
    assert out.lines[-1].formula == F("~p7 -> ~(p7 & p8)")


def test_transform_a9_needs_faithful():
    pr = HilbertProof("B", (axiom_line("~~p1 -> p1", "A9"),))
    raw = LericoneSubstitution({("c", 1): F("p2")})
    with pytest.raises(ValueError):
        transform_proof(pr, raw)
    faithful = LericoneSubstitution({("c", 1): F("p2")}, keying="faithful")
    out = transform_proof(pr, faithful)
    assert out.lines[-1].formula == F("~~p2 -> p2")


def test_transform_takes_finite_tables_only():
    pr = HilbertProof("BM", (axiom_line("p1 -> p1", "A1"),
                             axiom_line("(p1 -> p1) -> ((p1 -> p1) | p2)", "A3"),
                             ProofLine(F("(p1 -> p1) | p2"), RuleRef("R2", (0, 1)))))
    raw = LericoneSubstitution({("c", 1): F("p3")})
    for lazy in (godel_substitution(), star(raw, raw)):
        with pytest.raises(TypeError, match="finite substitution table"):
            transform_proof(pr, lazy)
    out = transform_proof(pr, raw)
    assert out.lines[-1].formula == apply_lericone(raw, "", F("(p1 -> p1) | p2"))


def test_transform_double_negation_via_contraposition():
    """Transform the contraposition route to a double-negated theorem.

    The substitution inside the doubled negation is consulted at keys
    whose cancelled form exposes a branch step, so the faithful table
    must answer with its root-conditional entry for the rebuilt modus
    ponens to go through.
    """
    pp = F("p1 -> p1")
    pr = HilbertProof("B", (
        axiom_line("p1 -> p1", "A1"),
        ProofLine(Imp(Neg(pp), Neg(pp)), AxiomRef("A1")),
        ProofLine(Imp(pp, Neg(Neg(pp))), RuleRef("R5", (1,))),
        ProofLine(Neg(Neg(pp)), RuleRef("R2", (0, 2))),
    ))
    check_proof(pr)
    sigma = LericoneSubstitution({("c", 1): F("p4 | p5")}, keying="faithful")
    out = transform_proof(pr, sigma)
    check_proof(out)
    target = apply_lericone(sigma, "", pr.lines[-1].formula)
    assert out.lines[-1].formula == target
    assert target == F("~~((p4 | p5) -> (p4 | p5))")
    assert prove(Sequent((), target), "faithful").status == "valid"


def test_transform_random_bm_proofs():
    rng = random.Random(101)
    for _ in range(60):
        pr = random_proof(rng, "BM", steps=6)
        check_proof(pr)
        sigma = random_substitution(rng, rng.choice(("raw", "faithful", "plain")))
        out = transform_proof(pr, sigma)
        check_proof(out)
        assert out.lines[-1].formula == apply_lericone(sigma, "", pr.lines[-1].formula)
        assert jsonio.proof_to_json(out) == jsonio.proof_to_json(
            unmemoised_transform(pr, sigma))


def test_transform_random_b_proofs():
    rng = random.Random(103)
    for _ in range(60):
        pr = random_proof(rng, "B", steps=6)
        check_proof(pr)
        sigma = random_substitution(rng, rng.choice(("faithful", "plain")))
        out = transform_proof(pr, sigma)
        check_proof(out)
        assert out.lines[-1].formula == apply_lericone(sigma, "", pr.lines[-1].formula)
        assert jsonio.proof_to_json(out) == jsonio.proof_to_json(
            unmemoised_transform(pr, sigma))


# The substitution each premise of a rule is rebuilt under (the paper's
# transformation, written out here apart from hilbert._RULES).
_PREMISE_SUBSTITUTIONS = {
    "R1": (lambda s: s, lambda s: s),
    "R2": (lambda s: s, t_of),
    "R3": (lambda s: shift(s, "n"),),
    "R4": (lambda s: shift(s, "l"), lambda s: shift(s, "r")),
    "R5": (lambda s: shift(s, "n"),),
}


def unmemoised_transform(pr, s):
    """Reference transformer: rebuilds every premise on every use, by
    recursion, and states each line as the image of the original."""
    out = []

    def rebuild(index, sub):
        just = pr.lines[index].just
        if isinstance(just, RuleRef):
            just = RuleRef(just.rule, tuple(
                rebuild(ref, context(sub))
                for ref, context in zip(just.premises, _PREMISE_SUBSTITUTIONS[just.rule])))
        out.append(ProofLine(apply_lericone(sub, "", pr.lines[index].formula), just))
        return len(out) - 1

    rebuild(len(pr.lines) - 1, s)
    return HilbertProof(pr.logic, tuple(out))


def reuse_proof(logic, x, axiom, levels):
    """The axiom x, then per level x & x by R1 from the previous line taken
    twice, the A2 instance (x & x) -> x, and x again by R2."""
    lines = [ProofLine(x, AxiomRef(axiom))]
    for _ in range(levels):
        last = len(lines) - 1
        lines += [ProofLine(And(x, x), RuleRef("R1", (last, last))),
                  ProofLine(Imp(And(x, x), x), AxiomRef("A2")),
                  ProofLine(x, RuleRef("R2", (last + 1, last + 2)))]
    return HilbertProof(logic, tuple(lines))


@pytest.mark.parametrize("logic, x, axiom, sigma", [
    ("BM", "p1 -> (p1 | p2)", "A3",
     LericoneSubstitution({("c", 1): F("p3 & p4"), ("lc", 2): F("~p1"),
                           ("rc", 1): F("p2")})),
    ("B", "~~(p1 & p2) -> (p1 & p2)", "A9",
     LericoneSubstitution({("c", 1): F("p3 | p4"), ("lc", 2): F("~p5")},
                          keying="faithful")),
])
def test_transform_reuse_proofs_match_the_unmemoised_rebuild(logic, x, axiom, sigma,
                                                             monkeypatch):
    images = []
    monkeypatch.setattr(hilbert, "apply_lericone",
                        lambda *args: images.append(args) or apply_lericone(*args))
    for levels, lines_out in ((4, 61), (6, 253), (8, 1021)):
        pr = reuse_proof(logic, F(x), axiom, levels)
        assert len(pr.lines) == 1 + 3 * levels
        images.clear()
        out = transform_proof(pr, sigma)
        assert len(out.lines) == lines_out
        # every line is reached under one substitution and imaged once
        assert len(images) == len(pr.lines)
        assert jsonio.proof_to_json(out) == jsonio.proof_to_json(
            unmemoised_transform(pr, sigma))


@pytest.mark.parametrize("corrupted, message", [
    (2, r"^line 3: R4 yields .*, line states ~\("),
    (0, r"^line 1: ~\(.*\) is not an instance of A1$"),
])
def test_transform_defects_fail_the_final_check(corrupted, message, tmp_path, capsys,
                                                monkeypatch):
    # transform_proof does not check the lines it builds; its closing
    # check_proof must catch a wrong image of a rule line or an axiom line
    pr = HilbertProof("BM", (axiom_line("p1 -> p1", "A1"), axiom_line("p2 -> p2", "A1"),
                             ProofLine(F("(p1 -> p2) -> (p1 -> p2)"), RuleRef("R4", (0, 1)))))
    check_proof(pr)
    target = pr.lines[corrupted].formula

    def corrupt(sub, seq, f):
        image = apply_lericone(sub, seq, f)
        return Neg(image) if f == target else image

    monkeypatch.setattr(hilbert, "apply_lericone", corrupt)
    sigma = LericoneSubstitution({("c", 1): F("p3 & p4"), ("lc", 2): F("~p1")})
    with pytest.raises(ProofCheckError, match=message) as rejected:
        transform_proof(pr, sigma)

    proof_file, table_file = tmp_path / "proof.json", tmp_path / "table.json"
    proof_file.write_text(json.dumps(jsonio.proof_to_json(pr)))
    table_file.write_text(json.dumps({"keying": "raw", "entries": [
        {"seq": "c", "atom": 1, "image": "p3 & p4"},
        {"seq": "lc", "atom": 2, "image": "~p1"}]}))
    from lericone.cli import main
    code = main(["transform-proof", str(proof_file), str(table_file)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {rejected.value}\n")


def r2_chain(length):
    """p1 -> p1, then p1 -> p1 again by R2 from the line before and the A1
    instance on line 2, until the proof has ``length`` lines."""
    pii = F("p1 -> p1")
    lines = [ProofLine(pii, AxiomRef("A1")), ProofLine(Imp(pii, pii), AxiomRef("A1"))]
    lines += [ProofLine(pii, RuleRef("R2", (i - 1 if i > 2 else 0, 1)))
              for i in range(2, length)]
    return HilbertProof("BM", tuple(lines))


def test_check_matches_each_distinct_axiom_line_once(monkeypatch):
    # the 8-level reuse proof's transform restates its axiom lines 511
    # times over 9 distinct formula objects; each is matched once
    sigma = LericoneSubstitution({("c", 1): F("p3 & p4"), ("lc", 2): F("~p1"),
                                  ("rc", 1): F("p2")})
    out = transform_proof(reuse_proof("BM", F("p1 -> (p1 | p2)"), "A3", 8), sigma)
    axiom_lines = [(line.formula, line.just.axiom) for line in out.lines
                   if isinstance(line.just, AxiomRef)]
    assert (len(out.lines), len(axiom_lines)) == (1021, 511)
    calls = []
    instances = hilbert._instances
    monkeypatch.setattr(hilbert, "_instances", lambda f, axioms: calls.append(
        (id(f), *axioms)) or instances(f, axioms))
    check_proof(out)
    distinct = {(id(f), axiom) for f, axiom in axiom_lines}
    assert len(calls) == len(set(calls)) <= len(distinct) == 9


def test_transform_has_no_depth_limit():
    pr = r2_chain(5000)
    check_proof(pr)
    sigma = LericoneSubstitution({("c", 1): F("p2 & p3"), ("lc", 1): F("p4")})
    out = transform_proof(pr, sigma)
    assert out.lines[-1].formula == F("(p2 & p3) -> (p2 & p3)")
    # each R2 line is rebuilt after its minor premise's rebuild and one
    # replayed copy of the major premise
    assert len(out.lines) == 2 * (5000 - 2) + 1


def _per_line_proof_json(pr):
    """proof_to_json's format, rendering and matching every line afresh."""
    lines = []
    for line in pr.lines:
        if isinstance(line.just, AxiomRef):
            just = {"axiom": line.just.axiom}
            matched = match_axiom(line.formula, pr.logic)
            if matched and matched[0] == line.just.axiom:
                just["bind"] = {name: render(g) for name, g in matched[1].items()}
        else:
            just = {"rule": line.just.rule, "from": [i + 1 for i in line.just.premises]}
        lines.append({"formula": render(line.formula), "just": just})
    return {"logic": pr.logic, "lines": lines}


def test_json_encoders_render_as_per_line_encoding(monkeypatch):
    rng = random.Random(113)
    proofs = [random_proof(rng, logic, steps=rng.randint(2, 9))
              for logic in ("BM", "B") for _ in range(60)]
    proofs += [transform_proof(reuse_proof("BM", F("p1 -> p1"), "A1", 4),
                               random_substitution(rng, "raw"))]
    expected = [_per_line_proof_json(pr) for pr in proofs]
    assert [jsonio.proof_to_json(pr) for pr in proofs] == expected
    # tableau proofs of the conclusions, which are valid in the logic's mode
    tableaux = [prove(Sequent((), pr.lines[-1].formula),
                      "plain" if pr.logic == "BM" else "faithful").proof
                for pr in proofs]
    encoded = [jsonio.tableau_proof_to_json(t) for t in tableaux]
    # the same encoders with one call per formula occurrence: no identity memo
    monkeypatch.setattr(jsonio, "_by_identity", lambda fn: fn)
    assert [jsonio.tableau_proof_to_json(t) for t in tableaux] == encoded
    assert [jsonio.proof_to_json(pr) for pr in proofs] == expected


def test_generated_conclusions_are_valid_in_matching_mode():
    rng = random.Random(107)
    for _ in range(40):
        bm = random_proof(rng, "BM", steps=5)
        assert prove(Sequent((), bm.lines[-1].formula), "plain").status == "valid"
        b = random_proof(rng, "B", steps=5)
        assert prove(Sequent((), b.lines[-1].formula), "faithful").status == "valid"


def test_implication_conclusions_carry_sharing_witness():
    rng = random.Random(109)
    seen = 0
    for _ in range(80):
        bm = random_proof(rng, "BM", steps=5)
        f = bm.lines[-1].formula
        if isinstance(f, Imp):
            seen += 1
            assert lericone_sharing(f, "plain") is not None
        b = random_proof(rng, "B", steps=5)
        f = b.lines[-1].formula
        if isinstance(f, Imp):
            assert lericone_sharing(f, "faithful") is not None
    assert seen > 10


def _line(text, just):
    return ProofLine(F(text), just)


# Every check_proof rejection, with the exact text `check-proof --json`
# prints.  The order of the checks shows where one proof breaks several
# rules: the gate before the arity, the arity before the references.
_PII = _line("p1 -> p1", AxiomRef("A1"))
_NEG = _line("~p1 -> ~p1", AxiomRef("A1"))
_CONJ = _line("(p1 & p2) -> p1", AxiomRef("A2"))
_REJECTIONS = [
    ("unknown axiom", "BM", (_line("p1 -> p1", AxiomRef("A10")),),
     "line 1: unknown axiom 'A10'"),
    ("A9 in BM", "BM", (_line("~~p1 -> p1", AxiomRef("A9")),),
     "line 1: A9 is not available in BM"),
    ("non-instance", "BM", (_line("p1 -> p2", AxiomRef("A1")),),
     "line 1: p1 -> p2 is not an instance of A1"),
    ("non-instance of A9", "B", (_line("~p1 -> p1", AxiomRef("A9")),),
     "line 1: ~p1 -> p1 is not an instance of A9"),
    ("unknown rule", "B", (_PII, _line("p1", RuleRef("R6", (0,)))),
     "line 2: unknown rule 'R6'"),
    ("R5 in BM", "BM", (_NEG, _line("p1 -> ~~p1", RuleRef("R5", (0, 0)))),
     "line 2: R5 is not available in BM"),
    ("R1 arity", "BM", (_PII, _line("p1", RuleRef("R1", (0,)))),
     "line 2: R1 takes 2 premises"),
    ("R2 arity", "BM", (_PII, _line("p1", RuleRef("R2", (0, 0, 0)))),
     "line 2: R2 takes 2 premises"),
    ("R3 arity", "BM", (_PII, _line("p1", RuleRef("R3", (0, 5)))),
     "line 2: R3 takes 1 premises"),
    ("R4 arity", "BM", (_PII, _line("p1", RuleRef("R4", ()))),
     "line 2: R4 takes 2 premises"),
    ("R5 arity", "B", (_PII, _line("p1", RuleRef("R5", (0, 0)))),
     "line 2: R5 takes 1 premises"),
    ("forward reference", "BM", (_PII, _line("p1", RuleRef("R1", (0, 2)))),
     "line 2: premise reference 3 is not an earlier line"),
    ("self reference", "BM", (_PII, _line("p1", RuleRef("R3", (1,)))),
     "line 2: premise reference 2 is not an earlier line"),
    ("negative reference", "BM", (_PII, _line("p1", RuleRef("R3", (-1,)))),
     "line 2: premise reference 0 is not an earlier line"),
    ("R1 conclusion", "BM", (_PII, _line("p1 & p2", RuleRef("R1", (0, 0)))),
     "line 2: R1 yields (p1 -> p1) & (p1 -> p1), line states p1 & p2"),
    ("R2 minor mismatch", "BM",
     (_CONJ, _PII, _line("p1", RuleRef("R2", (0, 1)))),
     "line 3: premises do not fit the shape of R2"),
    ("R2 major not a conditional", "BM",
     (_PII, _line("(p1 -> p1) & (p1 -> p1)", RuleRef("R1", (0, 0))),
      _line("p1", RuleRef("R2", (0, 1)))),
     "line 3: premises do not fit the shape of R2"),
    ("R2 conclusion", "BM",
     (_PII, _line("(p1 -> p1) -> (p1 -> p1)", AxiomRef("A1")),
      _line("p2", RuleRef("R2", (0, 1)))),
     "line 3: R2 yields p1 -> p1, line states p2"),
    ("R3 not a conditional", "BM",
     (_PII, _line("(p1 -> p1) & (p1 -> p1)", RuleRef("R1", (0, 0))),
      _line("p1", RuleRef("R3", (1,)))),
     "line 3: premises do not fit the shape of R3"),
    ("R3 conclusion", "BM", (_CONJ, _line("~p1 -> ~p2", RuleRef("R3", (0,)))),
     "line 2: R3 yields ~p1 -> ~(p1 & p2), line states ~p1 -> ~p2"),
    ("R4 first not a conditional", "BM",
     (_PII, _line("(p1 -> p1) & (p1 -> p1)", RuleRef("R1", (0, 0))),
      _line("p1", RuleRef("R4", (1, 0)))),
     "line 3: premises do not fit the shape of R4"),
    ("R4 second not a conditional", "BM",
     (_PII, _line("(p1 -> p1) & (p1 -> p1)", RuleRef("R1", (0, 0))),
      _line("p1", RuleRef("R4", (0, 1)))),
     "line 3: premises do not fit the shape of R4"),
    ("R4 conclusion", "BM", (_PII, _CONJ, _line("p1", RuleRef("R4", (1, 0)))),
     "line 3: R4 yields (p1 -> p1) -> ((p1 & p2) -> p1), line states p1"),
    ("R5 not a conditional", "B",
     (_PII, _line("(p1 -> p1) & (p1 -> p1)", RuleRef("R1", (0, 0))),
      _line("p1", RuleRef("R5", (1,)))),
     "line 3: premises do not fit the shape of R5"),
    ("R5 consequent not a negation", "B",
     (_PII, _line("~p1 -> p1", RuleRef("R5", (0,)))),
     "line 2: premises do not fit the shape of R5"),
    ("R5 conclusion", "B", (_NEG, _line("p1 -> ~p1", RuleRef("R5", (0,)))),
     "line 2: R5 yields p1 -> ~~p1, line states p1 -> ~p1"),
    ("unknown justification", "BM", (_line("p1 -> p1", "A1"),),
     "line 1: unknown justification 'A1'"),
]


@pytest.mark.parametrize("logic, lines, message", [r[1:] for r in _REJECTIONS],
                         ids=[r[0] for r in _REJECTIONS])
def test_check_proof_rejection_messages(logic, lines, message):
    with pytest.raises(ProofCheckError) as err:
        check_proof(HilbertProof(logic, lines))
    assert str(err.value) == message
    assert err.value.line == int(message.split(":")[0].split()[1]) - 1


def _ax(axiom):
    return {"axiom": axiom}


def _by(rule, *lines):
    return {"rule": rule, "from": list(lines)}


# Proofs in which a bad line restates the formula object of an earlier line
# that passed, with premises, axiom or references that do not hold.
_REPLAYS = [
    ("R1 with other premises",
     [("p1 -> p1", _ax("A1")), ("~p1 -> ~p1", _ax("A1")),
      ("(p1 -> p1) & (p1 -> p1)", _by("R1", 1, 1)),
      ("(p1 -> p1) & (p1 -> p1)", _by("R1", 1, 2))],
     "line 4: R1 yields (p1 -> p1) & (~p1 -> ~p1), line states (p1 -> p1) & (p1 -> p1)"),
    ("R2 with other premises",
     [("p1 -> p1", _ax("A1")), ("(p1 -> p1) -> (p1 -> p1)", _ax("A1")),
      ("p1 -> p1", _by("R2", 1, 2)), ("p1 -> p1", _by("R2", 2, 2))],
     "line 4: premises do not fit the shape of R2"),
    ("axiom restated under another id",
     [("p1 -> p1", _ax("A1")), ("p1 -> p1", _ax("A3"))],
     "line 2: p1 -> p1 is not an instance of A3"),
    ("axiom restated under an unavailable id",
     [("(p1 & p2) -> p1", _ax("A2")), ("(p1 & p2) -> p1", _ax("A9"))],
     "line 2: A9 is not available in BM"),
    ("replay with a negative reference",
     [("p1 -> p1", _ax("A1")), ("(p1 -> p1) & (p1 -> p1)", _by("R1", 1, 1)),
      ("p1 -> p1", _ax("A1")), ("(p1 -> p1) & (p1 -> p1)", _by("R1", 1, -1))],
     "line 4: premise reference -1 is not an earlier line"),
    ("replay with a forward reference",
     [("p1 -> p1", _ax("A1")), ("(p1 -> p1) & (p1 -> p1)", _by("R1", 1, 1)),
      ("(p1 -> p1) & (p1 -> p1)", _by("R1", 1, 4)), ("p1 -> p1", _ax("A1"))],
     "line 3: premise reference 4 is not an earlier line"),
]


@pytest.mark.parametrize("lines, message", [r[1:] for r in _REPLAYS],
                         ids=[r[0] for r in _REPLAYS])
def test_check_memo_rejects_restated_lines(lines, message):
    doc = {"logic": "BM", "lines": [{"formula": text, "just": just}
                                    for text, just in lines]}
    shared = jsonio.proof_from_json(doc)
    fresh = HilbertProof("BM", tuple(ProofLine(F(text), line.just)
                                     for (text, _), line in zip(lines, shared.lines)))
    for pr in (shared, fresh):
        with pytest.raises(ProofCheckError) as err:
            check_proof(pr)
        assert str(err.value) == message
        assert err.value.line == int(message.split(":")[0].split()[1]) - 1
    # in the decoded proof, the bad line's formula is an earlier line's object
    bad = shared.lines[err.value.line].formula
    assert any(line.formula is bad for line in shared.lines[:err.value.line])


def _formula_ids(f):
    return {id(node) for _, node, _ in occurrences(f)}


def _node_ids(pr):
    return {i for line in pr.lines for i in _formula_ids(line.formula)}


def test_proof_documents_intern_their_subformulas():
    rng = random.Random(127)
    proofs = [random_proof(rng, logic, steps=rng.randint(2, 9))
              for logic in ("BM", "B") for _ in range(30)]
    proofs.append(transform_proof(reuse_proof("BM", F("p1 -> p1"), "A1", 4),
                                  random_substitution(rng, "raw")))
    for pr in proofs:
        doc = jsonio.proof_to_json(pr)
        first, second = jsonio.proof_from_json(doc), jsonio.proof_from_json(doc)
        # the same trees as a parse per line
        assert [line.formula for line in first.lines] == [
            parse(line["formula"]) for line in doc["lines"]]
        # one object per distinct subformula in the document
        objects: dict = {}
        for line in first.lines:
            for _, node, _ in occurrences(line.formula):
                assert objects.setdefault(render(node), node) is node
        assert len(_node_ids(first)) == len(objects)
        # each decode has its own table
        assert not _node_ids(first) & _node_ids(second)
    pii = jsonio.proof_from_json({"logic": "BM", "lines": [
        {"formula": "(p1 -> p1) -> (p1 -> p1)", "just": {"axiom": "A1"}}]})
    assert pii.lines[0].formula.left is pii.lines[0].formula.right
    # one parse call is one table: equal subformulas are one object
    f = parse("(p1 -> p1) -> (p1 -> p1)")
    assert f.left is f.right and f.left.left is f.left.right
    # so is one parse_sequent call, across premises and the conclusion
    s = parse_sequent("p1 -> p2, ~(p1 -> p2) |- p1 -> p2")
    assert s.premises[0] is s.premises[1].child is s.conclusion
    # two calls share no node
    g = parse("(p1 -> p1) -> (p1 -> p1)")
    assert g == f and not _formula_ids(f) & _formula_ids(g)
    assert not _formula_ids(s.conclusion) & _formula_ids(
        parse_sequent("p1 -> p2 |- p1 -> p2").conclusion)
    # a substitution table is one document: its images share one table
    doc = {"keying": "raw", "entries": [
        {"seq": "c", "atom": 1, "image": "p2 & p3"},
        {"seq": "lc", "atom": 1, "image": "~(p2 & p3)"}]}
    first, second = jsonio.substitution_from_json(doc), jsonio.substitution_from_json(doc)
    assert first.entries["c", 1] is first.entries["lc", 1].child
    assert first == second and not _formula_ids(first.entries["c", 1]) & \
        _formula_ids(second.entries["c", 1])


def test_proof_documents_parse_each_text_once(monkeypatch):
    parsed, recalled = [], []
    remember, recall = formula._remember, formula._recall

    def remembering(whole, node, nodes):
        parsed.append(whole)
        remember(whole, node, nodes)

    def recalling(text, pos, nodes):
        node, after = recall(text, pos, nodes)
        if node is not None:
            recalled.append(text[pos:after])
        return node, after

    x = "(p1 & p2) -> (p1 & p2)"
    pr = reuse_proof("BM", F(x), "A1", 4)
    doc = jsonio.proof_to_json(pr)
    # every parse goes through the table, so only the decode is watched
    monkeypatch.setattr(formula, "_remember", remembering)
    monkeypatch.setattr(formula, "_recall", recalling)
    assert [line["formula"] for line in doc["lines"][:3]] == [
        x, f"({x}) & ({x})", f"(({x}) & ({x})) -> ({x})"]
    assert jsonio.proof_from_json(doc) == pr
    # 13 lines, 3 distinct texts, each parsed whole once; the second and
    # third read the earlier lines they restate in parentheses as known
    assert parsed == [line["formula"] for line in doc["lines"][:3]]
    assert recalled == [f"({x})", f"({x})", f"(({x}) & ({x}))", f"({x})"]
