import random
from itertools import product

import pytest

from lericone import (Imp, annotate, atom_occurrences, c_transform,
                      domain_keys, equivalent, faithful_key, lrcn, parse,
                      parse_sequent, polarity, reduct, subformula_at)
from lericone.generate import exhaustive_formulas, random_formula
from lericone.relevance import certify_irrelevance, lericone_sharing, make_h
from lericone.semantics import brute_consequence, decide
from lericone.formula import Atom, Neg, Sequent, all_paths, size
from lericone.seq import children, locate, occurrences, validate_seq
from lericone.substitution import RenamingTable, skeletonize
from lericone.tableau import (Triple, branch_size_bound, extensions_of,
                              extract_countermodel, initial_tableau, prove,
                              saturate)

from conftest import (F, deletion_normal_forms, fold_polarity, p3, words_up_to)


def test_validate_seq():
    for good in ("", "c", "nc", "lrn", "rnc"):
        assert validate_seq(good) == good
    with pytest.raises(ValueError):
        validate_seq("cn")
    with pytest.raises(ValueError):
        validate_seq("ncc")
    with pytest.raises(ValueError):
        validate_seq("x")


def _open_branch():
    return saturate(initial_tableau(parse_sequent("p1 |- p2"))).branches[0]


@pytest.mark.parametrize("call", [
    lambda mode: brute_consequence(parse_sequent("p1 |- p1"), mode),
    lambda mode: decide(parse_sequent("p1 |- p1"), mode),
    lambda mode: skeletonize(parse_sequent("p1 |- p1"), mode=mode),
    lambda mode: initial_tableau(parse_sequent("p1 |- p1"), mode),
    lambda mode: prove(parse_sequent("p1 |- p1"), mode),
    lambda mode: extract_countermodel(_open_branch(), mode,
                                      parse_sequent("p1 |- p2")),
    lambda mode: lericone_sharing(F("p1 -> p1"), mode),
    lambda mode: certify_irrelevance(F("p1 -> p2"), mode),
    lambda mode: make_h(F("p1"), F("p2"), mode),
    lambda mode: RenamingTable({("c", 1): 1}, mode=mode).as_substitution(),
], ids=["brute_consequence", "decide", "skeletonize", "initial_tableau",
        "prove", "extract_countermodel", "lericone_sharing",
        "certify_irrelevance", "make_h", "RenamingTable"])
def test_unknown_mode_is_rejected(call):
    for mode in ("plain", "faithful"):
        call(mode)
    with pytest.raises(ValueError, match="unknown mode"):
        call("bogus")


def test_lrcn_examples():
    f = F("~p1 -> (p1 -> p2)")
    assert lrcn(f, ("left", "only")) == "nc"
    assert lrcn(F("~(p1 -> p2)"), ("only", "left")) == "ln"
    assert lrcn(F("p1"), ()) == ""


def test_annotate_examples():
    f = F("~p1 -> (p1 -> p2)")
    atoms = {annotate(f)[path] for path, _ in atom_occurrences(f)}
    assert atoms == {"nc", "lc", "rc"}

    g = F("(p1 -> p1) -> p1")
    assert annotate(g)[("left", "left")] == "lc"
    assert annotate(g)[("left", "right")] == "rc"
    assert annotate(g)[("right",)] == "c"

    h = F("p1 & p2")
    assert annotate(h)[("left",)] == "" and annotate(h)[("right",)] == ""


def test_annotate_agrees_with_lrcn_everywhere():
    """Every form of the sequence rule gives the same sequences: the path
    walk, the path descent, the whole-formula annotation, the fold behind
    domain_keys, and the tableau rules."""
    rng = random.Random(11)
    for _ in range(60):
        f = random_formula(rng, (1, 2), rng.randint(0, 7))
        annotation = annotate(f)
        walk = list(occurrences(f))
        # preorder is sorted path order, which `annotate` output relies on
        assert [path for path, _, _ in walk] == sorted(annotation)
        for path, node, seq in walk:
            found, found_seq = locate(f, path)
            assert found is node and found_seq == seq == annotation[path]
        assert atom_occurrences(f) == [(path, node.index) for path, node, _ in walk
                                       if isinstance(node, Atom)]
        for path, seq in annotation.items():
            assert lrcn(f, path) == seq
        assert domain_keys(f) == {(annotation[path], atom)
                                  for path, atom in atom_occurrences(f)}
        for path, seq in annotation.items():
            node = subformula_at(f, path)
            steps = children(node, seq)
            for selector, _, child_seq in steps:
                assert annotation[path + (selector,)] == child_seq
            for sign in (0, 1):
                extension = extensions_of(Triple(seq, sign, node))
                if not steps:
                    assert extension is None
                    continue
                added = [(t.seq, t.formula)
                         for group in extension[1] for t in group]
                assert added == [(child_seq, child)
                                 for _, child, child_seq in steps]


@pytest.mark.parametrize("shape", ["negations", "conditionals"])
def test_occurrence_addressing_is_depth_safe(shape):
    """A 1,500-level ``~`` chain and a 1,500-long right-nested ``->`` chain,
    built from constructors because the parser recurses, are deeper than
    the recursion limit; every path function walks them and they agree."""
    depth = 1500
    if shape == "negations":
        f = Atom(1)
        for _ in range(depth):
            f = Neg(f)
        deepest = (("only",) * depth, 1, "n" * depth)
        atoms = 1
    else:
        f = Atom(depth + 1)
        for index in range(depth, 0, -1):
            f = Imp(Atom(index), f)
        deepest = (("right",) * depth, depth + 1, "r" * (depth - 1) + "c")
        atoms = depth + 1
    paths = list(all_paths(f))
    annotation = annotate(f)
    assert list(annotation) == paths
    assert size(f) == len(paths) == branch_size_bound(Sequent((), f)) == depth + atoms
    found = atom_occurrences(f)
    assert len(found) == atoms
    path, atom = found[-1]
    assert (path, atom, annotation[path]) == deepest
    assert subformula_at(f, path) == Atom(atom)
    assert lrcn(f, path) == annotation[path]


def test_c_transform():
    assert c_transform("l") == "c"
    assert c_transform("rn") == "rn"
    assert c_transform("") == ""
    assert c_transform("nr") == "nc"
    with pytest.raises(ValueError):
        c_transform("nc")


def test_c_transform_recursion_clauses():
    # prepend clauses: t(n + x) == n + t(x); t(l + x) == c when x empty
    for word in words_up_to(5, with_c=False):
        assert c_transform("n" + word) == "n" + c_transform(word)
        if word:
            assert c_transform("l" + word) == "l" + c_transform(word)
            assert c_transform("r" + word) == "r" + c_transform(word)
    assert c_transform("l") == "c" and c_transform("r") == "c"


def test_promotion_observation_exhaustively():
    """Annotating B inside A -> C (either side) and then inside A alone
    differ exactly by the c_transform of the c-free prefix."""
    right = p3
    for a in exhaustive_formulas(3, (1, 2)):
        combined = Imp(a, right)
        flipped = Imp(right, a)
        for path, _ in atom_occurrences(a):
            inner = lrcn(a, path)
            as_left = lrcn(combined, ("left",) + path)
            as_right = lrcn(flipped, ("right",) + path)
            assert as_left.endswith("c") and as_right.endswith("c")
            assert c_transform(as_left[:-1]) == inner
            assert c_transform(as_right[:-1]) == inner


def test_reduct_examples():
    assert reduct("nn") == ""
    assert reduct("nnnc") == "nc"
    assert reduct("lnnr") == "lr"


def test_reduct_against_deletion_oracle():
    for word in words_up_to(6):
        forms = deletion_normal_forms(word)
        assert forms == {reduct(word)}
        assert reduct(reduct(word)) == reduct(word)


def test_equivalent():
    assert equivalent("nnc", "c")
    assert not equivalent("lc", "rc")
    assert equivalent("nnnn", "")
    words = list(words_up_to(4))
    for x in words:
        assert equivalent(x, x)
    rng = random.Random(5)
    for _ in range(300):
        x, y, z = rng.choice(words), rng.choice(words), rng.choice(words)
        assert equivalent(x, y) == equivalent(y, x)
        if equivalent(x, y) and equivalent(y, z):
            assert equivalent(x, z)


def test_equivalent_preserves_polarity():
    for x in words_up_to(5, with_c=False):
        for spot in range(len(x) + 1):
            y = x[:spot] + "nn" + x[spot:]
            assert equivalent(x, y)
            assert polarity(x) == polarity(y)


def test_polarity():
    assert polarity("") == "positive"
    assert polarity("n") == "negative"
    assert polarity("ln") == "positive"
    with pytest.raises(ValueError):
        polarity("nc")
    for word in words_up_to(6, with_c=False):
        assert polarity(word) == fold_polarity(word)
        assert polarity(word) == fold_polarity(word, reverse=True)


def test_faithful_key():
    assert faithful_key("nnc") == "c"
    assert faithful_key("lnn") == "c"  # the cancelled pair exposes the branch step
    assert faithful_key("rnn") == "c"
    assert faithful_key("n") == "n"
    assert faithful_key("") == ""
    assert faithful_key("lnnc") == "lc"
    for word in words_up_to(5):
        assert faithful_key(faithful_key(word)) == faithful_key(word)
        # refinement: equivalent words always share a key
        assert faithful_key(word) == faithful_key(reduct(word))
        if word.endswith("c"):
            assert faithful_key(word) == reduct(word)


def test_lericone_seq_invariant_holds_on_annotations():
    rng = random.Random(13)
    for _ in range(60):
        f = random_formula(rng, (1, 2, 3), rng.randint(0, 8))
        for seq in annotate(f).values():
            validate_seq(seq)
