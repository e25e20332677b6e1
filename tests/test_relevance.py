import random
from itertools import chain

import pytest

from lericone import (Assignment, Imp, Sequent, brute_consequence, decide,
                      evaluate, falsifies, lericone_sharing, make_h, parse,
                      certify_irrelevance, shares_atom, skeletonize)
from lericone.generate import exhaustive_formulas, random_formula
from lericone.tableau import prove

from conftest import F


def test_shares_atom():
    assert shares_atom(F("p1 -> p2"), F("p2 -> p3")) == 2
    assert shares_atom(F("p1"), F("p2")) is None
    assert shares_atom(F("p1 & p2"), F("~p2")) == 2


def test_lericone_sharing_examples():
    w = lericone_sharing(F("(p1 -> p2) -> (p1 -> p2)"))
    assert w is not None and (w.atom, w.sequence) == (1, "lc")

    assert lericone_sharing(F("p1 -> ~~p1"), "plain") is None
    faithful = lericone_sharing(F("p1 -> ~~p1"), "faithful")
    assert faithful is not None and faithful.sequence == "c"

    for mode in ("plain", "faithful"):
        assert lericone_sharing(F("p1 -> (p2 | ~p2)"), mode) is None

    with pytest.raises(ValueError):
        lericone_sharing(F("p1 & p2"))


def test_sharing_witness_paths_line_up():
    from lericone import lrcn, reduct, subformula_at, Atom
    rng = random.Random(113)
    found = 0
    for _ in range(300):
        f = random_formula(rng, (1, 2), rng.randint(1, 6))
        if not isinstance(f, Imp):
            continue
        for mode in ("plain", "faithful"):
            w = lericone_sharing(f, mode)
            if w is None:
                continue
            found += 1
            assert subformula_at(f, w.antecedent_path) == Atom(w.atom)
            assert subformula_at(f, w.consequent_path) == Atom(w.atom)
            left_seq = lrcn(f, w.antecedent_path)
            right_seq = lrcn(f, w.consequent_path)
            if mode == "plain":
                assert left_seq == right_seq == w.sequence
            else:
                assert reduct(left_seq) == reduct(right_seq) == w.sequence
    assert found > 50


def test_make_h_examples():
    h = make_h(F("p1"), F("p2"))
    assert h.entries == {("c", 1): 1, ("c", 2): 0}
    assert evaluate(h, "", F("p1 -> p2")) == 0

    h2 = make_h(F("p1 | ~p1"), F("p2 | ~p2"))
    assert h2.entries == {("c", 1): 1, ("nc", 1): 0, ("c", 2): 0, ("nc", 2): 1}
    assert evaluate(h2, "", F("(p1 | ~p1) -> (p2 | ~p2)")) == 0

    with pytest.raises(ValueError):
        make_h(F("p1"), F("~p1"))


def test_make_h_on_random_disjoint_pairs():
    rng = random.Random(127)
    for _ in range(300):
        a = random_formula(rng, (1, 2, 3), rng.randint(0, 5))
        b = random_formula(rng, (4, 5, 6), rng.randint(0, 5))
        for mode in ("plain", "faithful"):
            h = make_h(a, b, mode)
            assert evaluate(h, "c", a) == 1
            assert evaluate(h, "c", b) == 0
            assert evaluate(h, "", Imp(a, b)) == 0


def test_make_h_mirror_definition_coincides():
    # consequent-side values equal one minus the antecedent-style value
    rng = random.Random(131)
    for _ in range(100):
        a = random_formula(rng, (1, 2), rng.randint(0, 4))
        b = random_formula(rng, (3, 4), rng.randint(0, 4))
        h = make_h(a, b)
        flipped = make_h(b, a)
        from lericone import lrcn, atom_occurrences
        imp, pmi = Imp(a, b), Imp(b, a)
        for path, atom in atom_occurrences(b):
            seq_in_imp = lrcn(imp, ("right",) + path)
            seq_in_pmi = lrcn(pmi, ("left",) + path)
            assert h.lookup(seq_in_imp, atom) == 1 - flipped.lookup(seq_in_pmi, atom)


def test_make_h_faithful_keys_collapse():
    h = make_h(F("~~p1"), F("p2"), "faithful")
    # the antecedent atom sits under nnc; faithful keying stores it at c
    assert h.lookup("nnc", 1) == h.lookup("c", 1) == 1
    assert h.keying == "faithful"


def test_certify_irrelevance_examples():
    cert = certify_irrelevance(F("p1 -> (p2 | ~p2)"))
    assert cert is not None
    assert evaluate(cert, "", F("p1 -> (p2 | ~p2)")) == 0

    plain = certify_irrelevance(F("p1 -> ~~p1"), "plain")
    assert plain is not None
    assert evaluate(plain, "", F("p1 -> ~~p1")) == 0
    assert certify_irrelevance(F("p1 -> ~~p1"), "faithful") is None

    assert certify_irrelevance(F("p1 -> p1")) is None


def test_certificates_agree_with_provers():
    for f in exhaustive_formulas(4, (1, 2)):
        if not isinstance(f, Imp):
            continue
        for mode in ("plain", "faithful"):
            cert = certify_irrelevance(f, mode)
            if cert is not None:
                s = Sequent((), f)
                assert falsifies(cert, s)
                assert not decide(s, mode).valid
                assert not prove(s, mode).status == "valid"


def skeleton_certificate(imp, mode):
    """The certificate built the long way: ``make_h`` on the atom-disjoint
    skeleton of the implication, pulled back through the renaming."""
    if lericone_sharing(imp, mode) is not None:
        return None
    skeleton_sequent, renaming = skeletonize(Sequent((), imp), mode=mode)
    skeleton = skeleton_sequent.conclusion
    h = make_h(skeleton.left, skeleton.right, mode)
    return Assignment({(seq, atom): h.lookup(seq, fresh)
                       for (seq, atom), fresh in renaming.forward.items()},
                      default=1, keying=h.keying)


def test_certificates_match_the_skeleton_construction():
    """Built on the implication itself, the certificate equals the skeleton
    construction on every implication with up to 4 connectives and on
    seeded random ones with up to 11."""
    rng = random.Random(139)
    randoms = [Imp(random_formula(rng, (1, 2, 3), rng.randint(0, 5)),
                   random_formula(rng, (1, 2, 3), rng.randint(0, 5)))
               for _ in range(1000)]
    certified = 0
    for f in chain(exhaustive_formulas(4, (1, 2)), randoms):
        if not isinstance(f, Imp):
            continue
        for mode in ("plain", "faithful"):
            reference = skeleton_certificate(f, mode)
            assert certify_irrelevance(f, mode) == reference, (f, mode)
            certified += reference is not None
    assert certified > 10000


def test_valid_implications_share():
    for f in exhaustive_formulas(4, (1, 2)):
        if not isinstance(f, Imp):
            continue
        for mode in ("plain", "faithful"):
            if decide(Sequent((), f), mode).valid:
                assert lericone_sharing(f, mode) is not None, (f, mode)
