import random
import time

import pytest

from lericone import substitution
from lericone import (And, Atom, Imp, Neg, Or, Sequent, apply_lericone,
                      apply_plain, c_transform, faithful_key, godel,
                      godel_substitution, identity_substitution,
                      inverse_rename, parse, render, skeletonize, star,
                      shift, t_of, LericoneSubstitution)
from lericone.generate import (random_formula, random_sequence,
                               random_substitution)

from lericone.seq import reduct

from conftest import F, p1, p2, words_up_to


def test_apply_plain():
    table = {1: F("p2 & p3")}
    assert apply_plain(table, F("p1 -> p1")) == F("(p2 & p3) -> (p2 & p3)")
    assert apply_plain({}, F("~p1 | p2")) == F("~p1 | p2")
    assert apply_plain({1: Neg(p1)}, Neg(p1)) == Neg(Neg(p1))


def test_apply_lericone_godel_example():
    image = apply_lericone(godel_substitution(), "", F("~p1 -> (p1 -> p1)"))
    assert render(image) == "~p20250 -> (p750 -> p2250)"


def test_apply_lericone_identity_default():
    sub = LericoneSubstitution({("lc", 2): F("p9")})
    assert apply_lericone(sub, "", p1) == p1
    assert sub.lookup("rc", 2) == p2


def test_apply_lericone_root_conditional_uses_c_keys():
    sub = LericoneSubstitution({("c", 1): F("p2")})
    assert apply_lericone(sub, "", F("p1 -> p1")) == F("p2 -> p2")
    # keys lc / rc are beyond the first conditional, not at it
    deeper = LericoneSubstitution({("lc", 1): F("p3"), ("rc", 1): F("p4")})
    assert apply_lericone(deeper, "", F("p1 -> p1")) == F("p1 -> p1")
    assert apply_lericone(deeper, "", F("(p1 -> p1) -> p2")) == F("(p3 -> p4) -> p2")


def test_apply_lericone_with_plain_table_equals_apply_plain():
    rng = random.Random(23)
    for _ in range(100):
        mapping = {i: random_formula(rng, (1, 2, 3), rng.randint(0, 3))
                   for i in (1, 2)}
        sub = LericoneSubstitution.plain(mapping)
        f = random_formula(rng, (1, 2, 3), rng.randint(0, 6))
        assert apply_lericone(sub, "", f) == apply_plain(mapping, f)


def test_star_identity_laws():
    rng = random.Random(31)
    identity = identity_substitution()
    for _ in range(50):
        tau = random_substitution(rng, rng.choice(("raw", "faithful", "plain")))
        seq = random_sequence(rng)
        atom = rng.choice((1, 2, 3))
        assert star(identity, tau).lookup(seq, atom) == tau.lookup(seq, atom)
        assert star(tau, identity).lookup(seq, atom) == tau.lookup(seq, atom)


def test_star_composition_identity():
    rng = random.Random(37)
    for _ in range(300):
        sigma = random_substitution(rng, rng.choice(("raw", "faithful", "plain")))
        tau = random_substitution(rng, rng.choice(("raw", "faithful", "plain")))
        seq = random_sequence(rng)
        f = random_formula(rng, (1, 2, 3), rng.randint(0, 5))
        assert apply_lericone(star(sigma, tau), seq, f) == \
            apply_lericone(sigma, seq, apply_lericone(tau, seq, f))


def test_star_preserves_faithfulness():
    rng = random.Random(41)
    for _ in range(100):
        sigma = random_substitution(rng, "faithful")
        tau = random_substitution(rng, "faithful")
        combo = star(sigma, tau)
        assert combo.is_faithful
        seq = random_sequence(rng)
        twin = seq[:-1] + "nn" + seq[-1] if seq else "nn"
        assert combo.lookup(seq, 1) == combo.lookup(faithful_key(seq), 1)
        assert combo.lookup(seq, 1) == combo.lookup(twin, 1)


def test_t_of_examples():
    sigma = LericoneSubstitution({("", 1): F("p5"), ("c", 1): F("p6")})
    assert t_of(sigma).lookup("c", 1) == F("p5")      # value at the empty word
    assert t_of(sigma).lookup("lc", 1) == F("p6")     # c_transform("l") == "c"
    assert t_of(sigma).lookup("rc", 1) == F("p6")
    assert t_of(sigma).lookup("n", 1) == p1           # identity off c keys


def test_t_of_pointwise_identity_extends_to_formulas():
    rng = random.Random(43)
    for _ in range(300):
        sigma = random_substitution(rng, rng.choice(("raw", "faithful")))
        word = random_sequence(rng, allow_c=False)
        f = random_formula(rng, (1, 2, 3), rng.randint(0, 4))
        assert apply_lericone(t_of(sigma), word + "c", f) == \
            apply_lericone(sigma, c_transform(word), f)


def test_shift_examples():
    sigma = LericoneSubstitution({("nc", 1): F("p5"), ("rlc", 1): F("p6")})
    assert shift(sigma, "n").lookup("c", 1) == F("p5")
    assert shift(sigma, "l").lookup("rc", 1) == F("p6")
    identity = identity_substitution()
    for seq in ("c", "nc", "lrc"):
        assert shift(identity, "n").lookup(seq, 1) == p1
    with pytest.raises(ValueError):
        shift(sigma, "nc")


def test_shift_pointwise_identity_extends_to_formulas():
    rng = random.Random(47)
    for _ in range(300):
        sigma = random_substitution(rng, rng.choice(("raw", "faithful")))
        word = random_sequence(rng, allow_c=False)
        context = random_sequence(rng, max_len=2, allow_c=False)
        f = random_formula(rng, (1, 2, 3), rng.randint(0, 4))
        assert apply_lericone(shift(sigma, context), word + "c", f) == \
            apply_lericone(sigma, word + context + "c", f)


def _previous_shift(s, context):
    """``shift`` as it was, with one branch per keying."""
    if s.is_plain:
        return s
    table = {}
    if s.keying == "raw":
        suffix = context + "c"
        for (seq, atom), image in s.entries.items():
            if seq.endswith(suffix):
                table[(seq[:-len(suffix)] + "c", atom)] = image
    else:
        for (seq, atom), image in s.entries.items():
            if not seq.endswith("c"):
                continue
            word = seq[:-1]
            ok = True
            for ch in reversed(context):
                if ch == "n":
                    word = reduct(word + "n")
                elif word.endswith(ch):
                    word = word[:-1]
                else:
                    ok = False
                    break
            if ok:
                table[(word + "c", atom)] = image
    return LericoneSubstitution(table, keying=s.keying)


def test_shift_matches_the_two_branch_version():
    rng = random.Random(53)
    contexts = list(words_up_to(4, with_c=False))
    assert len(contexts) == 121
    for keying in ("raw", "faithful"):
        for _ in range(500):
            sigma = random_substitution(rng, keying, entries=rng.randint(1, 8))
            for context in contexts:
                ours, previous = shift(sigma, context), _previous_shift(sigma, context)
                assert ours == previous
                assert list(ours.entries.items()) == list(previous.entries.items())


def test_godel_values():
    assert godel("nc", 1) == 20250
    assert godel("lc", 1) == 750
    assert godel("rc", 1) == 2250
    assert godel("", 1) == 2
    seen = {}
    for word in words_up_to(3):
        for atom in (1, 2, 3):
            code = godel(word, atom)
            assert code not in seen, (word, atom, seen[code])
            seen[code] = (word, atom)


def godel_by_trial_division(seq, atom):
    """Prime-power code with the primes found afresh on every call."""
    primes, candidate = [], 2
    while len(primes) <= len(seq):
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    code = 2 ** atom
    for prime, ch in zip(primes[1:], seq):
        code *= prime ** ("lrcn".index(ch) + 1)
    return code


def test_godel_matches_trial_division(monkeypatch):
    # a fresh prime list, grown out of order: long sequences first
    monkeypatch.setattr(substitution, "_PRIMES", [2, 3])
    rng = random.Random(41)
    lengths = list(range(41))
    rng.shuffle(lengths)
    words = list(words_up_to(3))
    for length in lengths:  # every length up to 40, c-terminated or not
        for _ in range(4):
            word = "".join(rng.choice("lrn") for _ in range(length))
            words.append(word[:-1] + "c" if word and rng.random() < 0.5 else word)
    for word in words:
        atom = rng.randint(1, 9)
        assert godel(word, atom) == godel_by_trial_division(word, atom), word


def test_long_chain_godel_skeleton_is_fast(monkeypatch, capsys):
    from lericone.cli import main
    monkeypatch.setattr(substitution, "_PRIMES", [2, 3])
    chain = " -> ".join(["p1"] * 600)  # keys with up to 599 symbols
    start = time.perf_counter()
    assert main(["skeleton", "--godel", chain]) == 0
    assert time.perf_counter() - start < 3
    assert capsys.readouterr().err == ""


def test_faithful_table_rejects_conflicts():
    with pytest.raises(ValueError):
        LericoneSubstitution({("c", 1): F("p7"), ("nnc", 1): F("p8")},
                             keying="faithful")
    with pytest.raises(ValueError):
        # a cancelled double negation exposes the branch step: l collides with c
        LericoneSubstitution({("l", 1): F("p7"), ("r", 1): F("p8")},
                             keying="faithful")
    merged = LericoneSubstitution({("c", 1): F("p7"), ("nnc", 1): F("p7")},
                                  keying="faithful")
    assert merged.lookup("nnnnc", 1) == F("p7")


@pytest.mark.parametrize("keying", ["raw", "faithful", "plain"])
def test_decoded_tables_reject_conflicting_duplicates(keying):
    from lericone.jsonio import assignment_from_json, substitution_from_json

    def entries(field, first, second):
        key = {"atom": 1} if keying == "plain" else {"seq": "c", "atom": 1}
        return {"keying": keying, "entries": [{**key, field: first},
                                              {**key, field: second}]}

    with pytest.raises(ValueError, match="conflicting images"):
        substitution_from_json(entries("image", "p2", "p3"))
    with pytest.raises(ValueError, match="conflicting values"):
        assignment_from_json(entries("value", 0, 1))
    # equal duplicates are one entry
    key = 1 if keying == "plain" else ("c", 1)
    assert substitution_from_json(entries("image", "p2", "p2")).entries == {key: p2}
    assert assignment_from_json(entries("value", 1, 1)).entries == {key: 1}


def test_inverse_rename_round_trip():
    rng = random.Random(53)
    for mode in ("plain", "faithful"):
        for _ in range(50):
            f = random_formula(rng, (1, 2, 3), rng.randint(0, 6))
            sequent, renaming = skeletonize(Sequent((), f), mode=mode)
            inverse = inverse_rename(renaming)
            assert apply_plain(inverse, sequent.conclusion) == f


def test_inverse_rename_examples():
    from lericone import RenamingTable
    table = RenamingTable({("c", 1): 7})
    inverse = inverse_rename(table)
    assert inverse[7] == p1
    assert apply_plain(inverse, Atom(9)) == Atom(9)


def test_skeletonize_examples():
    plain, _ = skeletonize(Sequent((), F("p1 -> ~~p1")), mode="plain")
    assert plain.conclusion == F("p1 -> ~~p2")
    faithful, _ = skeletonize(Sequent((), F("p1 -> ~~p1")), mode="faithful")
    assert faithful.conclusion == F("p1 -> ~~p1")
    shared, _ = skeletonize(Sequent((), F("p1 -> p1")), mode="plain")
    assert shared.conclusion == F("p1 -> p1")


def test_skeletonize_is_a_substitution_image():
    rng = random.Random(59)
    for mode in ("plain", "faithful"):
        for _ in range(60):
            premises = tuple(random_formula(rng, (1, 2), rng.randint(0, 4))
                             for _ in range(rng.randint(0, 2)))
            sequent = Sequent(premises, random_formula(rng, (1, 2), rng.randint(0, 5)))
            skeleton, renaming = skeletonize(sequent, mode=mode)
            rename_sub = renaming.as_substitution()
            for original, image in zip(sequent.formulas, skeleton.formulas):
                assert apply_lericone(rename_sub, "", original) == image


def test_skeletonize_godel_mode():
    skeleton, renaming = skeletonize(Sequent((), F("~p1 -> (p1 -> p1)")),
                                     use_godel=True)
    assert skeleton.conclusion == F("~p20250 -> (p750 -> p2250)")
    assert set(renaming.forward.values()) == {20250, 750, 2250}

    # faithful godel keying codes the normalised key, collapsing nnc onto c
    faithful, table = skeletonize(Sequent((), F("p1 -> ~~p1")),
                                  mode="faithful", use_godel=True)
    code = godel("c", 1)
    assert faithful.conclusion == Imp(Atom(code), Neg(Neg(Atom(code))))
    assert table.forward == {("c", 1): code}


def test_substitutions_hash_by_value():
    entries = [(("c", 1), F("p2 & p3")), (("lc", 2), F("~p1")), (("rc", 1), p2)]
    forward = LericoneSubstitution(dict(entries))
    backward = LericoneSubstitution(dict(reversed(entries)))
    assert forward == backward and hash(forward) == hash(backward)
    assert {forward: "memo"}[backward] == "memo"
    # faithful keying merges keys that differ by a cancelled double negation
    faithful = LericoneSubstitution(dict(entries), keying="faithful")
    merged = LericoneSubstitution({("nnc", 1): F("p2 & p3"), ("c", 1): F("p2 & p3"),
                                   ("lnnc", 2): F("~p1"), ("rnnnnc", 1): p2},
                                  keying="faithful")
    assert merged == faithful and hash(merged) == hash(faithful)
    assert faithful != forward  # the keying is part of the value
    assert (hash(LericoneSubstitution.plain({1: p2, 2: p1}))
            == hash(LericoneSubstitution.plain({2: p1, 1: p2})))
