import random
from operator import and_, or_

import pytest

from lericone import (And, Assignment, Atom, CapacityError, Imp, Neg, Or,
                      Sequent, apply_lericone,
                      brute_consequence, bullet, classical_valid, decide,
                      domain_keys, evaluate, falsifies, parse, parse_sequent,
                      relevant_domain, semantics)
from lericone.generate import (exhaustive_formulas, random_formula,
                               random_sequence, random_substitution)
from lericone.seq import fold

from conftest import F


def formula_sequent(text):
    return Sequent((), parse(text))


def test_evaluate_examples():
    f = Assignment({("c", 1): 1, ("nnc", 1): 0})
    assert evaluate(f, "", F("p1 -> ~~p1")) == 0

    ones = Assignment({}, default=1)
    assert evaluate(ones, "", F("p1 -> p1")) == 1

    rng = random.Random(2)
    chain = F("(p1 -> p2) | (p2 -> p3)")
    for _ in range(50):
        table = {key: rng.randint(0, 1) for key in domain_keys(chain)}
        assert evaluate(Assignment(table, default=rng.randint(0, 1)), "", chain) == 1


def test_assignment_values_must_be_bits():
    from lericone.jsonio import assignment_from_json
    for keying, key in (("raw", ("c", 1)), ("faithful", ("c", 1)), ("plain", 1)):
        with pytest.raises(ValueError, match="bits"):
            Assignment({key: 2}, keying=keying)
    for value in (2, 1.7, True):
        with pytest.raises(ValueError, match="bits"):
            assignment_from_json({"default": 0, "keying": "raw", "entries": [
                {"seq": "c", "atom": 1, "value": value}]})
    for default in ("1", 1.5, True):
        with pytest.raises(ValueError, match="bits"):
            assignment_from_json({"default": default, "keying": "raw", "entries": []})


def test_relevant_domain_examples():
    assert relevant_domain(formula_sequent("p1 -> ~~p1")) == {("c", 1), ("nnc", 1)}
    assert relevant_domain(formula_sequent("p1")) == {("", 1)}
    assert relevant_domain(formula_sequent("(p1 -> p2) | (p2 -> p3)")) == {
        ("c", 1), ("c", 2), ("c", 3)}


def test_brute_examples():
    assert brute_consequence(formula_sequent("p1 -> p1")).valid

    verdict = brute_consequence(formula_sequent("p1 -> ~~p1"))
    assert verdict.status == "invalid"
    assert verdict.countermodel.entries == {("c", 1): 1, ("nnc", 1): 0}

    assert brute_consequence(formula_sequent("p1 -> ~~p1"), "faithful").valid
    assert brute_consequence(formula_sequent("~~p1 -> p1")).status == "invalid"


def test_brute_countermodels_self_certify():
    rng = random.Random(17)
    for _ in range(150):
        premises = tuple(random_formula(rng, (1, 2), rng.randint(0, 3))
                         for _ in range(rng.randint(0, 2)))
        s = Sequent(premises, random_formula(rng, (1, 2), rng.randint(0, 5)))
        for mode in ("plain", "faithful"):
            verdict = brute_consequence(s, mode)
            if verdict.countermodel is not None:
                assert falsifies(verdict.countermodel, s)
                if mode == "faithful":
                    assert verdict.countermodel.keying == "faithful"


def test_brute_capacity_error():
    wide = " & ".join(f"(p{i} -> p{i + 1})" for i in range(1, 15))
    with pytest.raises(CapacityError) as err:
        brute_consequence(formula_sequent(f"{wide} -> p99"), cap=24)
    assert "skeleton" in str(err.value)


def test_decide_capacity_error():
    wide = " & ".join(f"(p{i} -> p{i + 1})" for i in range(1, 15))
    with pytest.raises(CapacityError) as err:
        decide(formula_sequent(f"{wide} -> p99"), cap=24)
    assert "skeleton" in str(err.value) and "cap" in str(err.value)
    small = formula_sequent("p1 -> p2")  # two keys: c p1, c p2
    assert decide(small, cap=2).status == "invalid"
    with pytest.raises(CapacityError):
        decide(small, cap=1)


def test_classical_examples():
    assert classical_valid(formula_sequent("p1 -> p1")).valid
    verdict = classical_valid(formula_sequent("p1 -> p2"))
    assert verdict.status == "invalid"
    assert verdict.countermodel.entries == {1: 1, 2: 0}
    assert classical_valid(formula_sequent("(p1 -> p2) | (p2 -> p3)")).valid


def test_decide_examples():
    assert decide(formula_sequent("(p1 -> (p1 -> p2)) -> (p1 -> p2)")).status == "invalid"
    assert decide(formula_sequent("p1 -> ~~p1"), "faithful").valid
    verdict = decide(formula_sequent("(p1 | ~p1) -> (p2 | ~p2)"))
    assert verdict.status == "invalid"
    assert falsifies(verdict.countermodel, formula_sequent("(p1 | ~p1) -> (p2 | ~p2)"))


def test_decide_with_premises():
    # premise keys live at the root, conditional-internal keys at c, so
    # detachment is not a valid sequent here; lattice reasoning is
    assert decide(parse_sequent("p1, p1 -> p2 |- p2")).status == "invalid"
    assert decide(parse_sequent("p1 & p2 |- p1")).valid
    assert decide(parse_sequent("p1 |- p1 | p2")).valid
    assert decide(parse_sequent("p1 |- p2")).status == "invalid"


def test_bullet_identity_substitution():
    from lericone import identity_substitution
    rng = random.Random(19)
    for _ in range(40):
        keys = {(random_sequence(rng), rng.choice((1, 2))) for _ in range(4)}
        f = Assignment({k: rng.randint(0, 1) for k in keys}, default=rng.randint(0, 1))
        composed = bullet(f, identity_substitution(), keys)
        for seq, atom in keys:
            assert composed.lookup(seq, atom) == f.lookup(seq, atom)


def test_bullet_composition_identity():
    rng = random.Random(29)
    for _ in range(200):
        keying = rng.choice(("raw", "faithful"))
        sigma = random_substitution(rng, keying)
        entry_keys = {(random_sequence(rng), rng.choice((1, 2, 3))) for _ in range(4)}
        if keying == "faithful":
            from lericone import faithful_key
            entry_keys = {(faithful_key(s), a) for s, a in entry_keys}
        f = Assignment({k: rng.randint(0, 1) for k in entry_keys},
                       default=rng.randint(0, 1), keying=keying)
        start = random_sequence(rng)
        formula = random_formula(rng, (1, 2, 3), rng.randint(0, 4))
        probes = domain_keys(formula, start)
        composed = bullet(f, sigma, probes)
        assert evaluate(composed, start, formula) == \
            evaluate(f, start, apply_lericone(sigma, start, formula))


def test_bullet_negation_unfold():
    sigma_table = {("c", 1): F("~p1")}
    from lericone import LericoneSubstitution
    sigma = LericoneSubstitution(sigma_table)
    f = Assignment({("nc", 1): 0}, default=1)
    composed = bullet(f, sigma, {("c", 1)})
    assert composed.lookup("c", 1) == 1 - f.lookup("nc", 1)


def test_substitution_closure_of_validity():
    rng = random.Random(71)
    valid_pool = [f for f in exhaustive_formulas(3, (1, 2))
                  if decide(Sequent((), f)).valid]
    sample = rng.sample(valid_pool, 40)
    for f in sample:
        sigma = random_substitution(rng, rng.choice(("raw", "faithful", "plain")))
        image = apply_lericone(sigma, "", f)
        assert decide(Sequent((), image)).valid
    # faithful analogue
    faithful_pool = [f for f in exhaustive_formulas(3, (1, 2))
                     if decide(Sequent((), f), "faithful").valid]
    for f in rng.sample(faithful_pool, 40):
        sigma = random_substitution(rng, rng.choice(("faithful", "plain")))
        image = apply_lericone(sigma, "", f)
        assert decide(Sequent((), image), "faithful").valid


def test_faithful_evaluation_ignores_cancelled_pairs():
    from lericone import faithful_key
    rng = random.Random(73)
    for _ in range(200):
        keys = {(faithful_key(random_sequence(rng)), rng.choice((1, 2)))
                for _ in range(5)}
        f = Assignment({k: rng.randint(0, 1) for k in keys},
                       default=rng.randint(0, 1), keying="faithful")
        formula = random_formula(rng, (1, 2), rng.randint(0, 5))
        base = random_sequence(rng, allow_c=False)
        spot = rng.randint(0, len(base))
        twin = base[:spot] + "nn" + base[spot:]
        assert evaluate(f, base, formula) == evaluate(f, twin, formula)


def test_plain_valid_implies_faithful_valid():
    for f in exhaustive_formulas(3, (1, 2)):
        s = Sequent((), f)
        if brute_consequence(s, "plain").valid:
            assert brute_consequence(s, "faithful").valid


def test_first_falsifier_is_lexicographically_first(monkeypatch):
    for block_width in (1, 2, 16):  # 2-6 keys over one block or many
        monkeypatch.setattr(semantics, "_BLOCK_WIDTH", block_width)
        for text in ("p1 -> ~~p1", "(p1 -> p2) -> (p3 | ~p1)",
                     "p2 & ~~p3 |- (p1 -> p3) | ~p2",
                     "p3, ~(p1 & p2) |- (~~p1 -> p2) & (p3 -> ~p4)"):
            s = parse_sequent(text)
            for mode in ("plain", "faithful"):
                verdict = brute_consequence(s, mode)
                countermodel = verdict.countermodel
                assert (verdict.status, countermodel and countermodel.entries) \
                    == scalar_brute(s, mode)
    assert brute_consequence(formula_sequent("p1 -> ~~p1")).countermodel.entries \
        == {("c", 1): 1, ("nnc", 1): 0}


def scalar_brute(s, mode):
    """Row-at-a-time enumeration; oracle for the packed-column search."""
    from lericone import faithful_key
    if mode == "faithful":
        keys = sorted({(faithful_key(seq), atom)
                       for seq, atom in relevant_domain(s)})
    else:
        keys = sorted(relevant_domain(s))
    keying = "faithful" if mode == "faithful" else "raw"
    for vector in range(1 << len(keys)):
        bits = {keys[i]: (vector >> (len(keys) - 1 - i)) & 1
                for i in range(len(keys))}
        candidate = Assignment(bits, default=0, keying=keying)
        if falsifies(candidate, s):
            return "invalid", bits
    return "valid", None


def scalar_classical(s):
    """Row-at-a-time classical truth table; oracle for ``classical_valid``."""
    atoms = sorted({key[1] for key in relevant_domain(s)})
    for vector in range(1 << len(atoms)):
        bits = {atoms[i]: (vector >> (len(atoms) - 1 - i)) & 1
                for i in range(len(atoms))}
        if falsifies(Assignment(bits, default=1, keying="plain"), s):
            return "invalid", bits
    return "valid", None


def test_brute_matches_scalar_enumeration(monkeypatch):
    rng = random.Random(37)
    cases = []
    for _ in range(120):
        premises = tuple(random_formula(rng, (1, 2), rng.randint(0, 3))
                         for _ in range(rng.randint(0, 2)))
        cases.append(Sequent(premises,
                             random_formula(rng, (1, 2, 3), rng.randint(0, 5))))
    skeleton = {}
    # blocks of 2 and 4 rows make the search over 1-9 keys cross many blocks
    for block_width in (16, 1, 2):
        monkeypatch.setattr(semantics, "_BLOCK_WIDTH", block_width)
        for index, s in enumerate(cases):
            classical = classical_valid(s)
            assert (classical.status, classical.countermodel
                    and classical.countermodel.entries) == scalar_classical(s)
            for mode in ("plain", "faithful"):
                verdict = brute_consequence(s, mode)
                status, entries = scalar_brute(s, mode)
                assert verdict.status == status
                if entries is not None:
                    assert verdict.countermodel.entries == entries
                decided = decide(s, mode)
                assert decided.status == status
                # the skeleton method's countermodel is the 16-wide one
                assert skeleton.setdefault((index, mode), decided) == decided


def literal_sequent(antecedent, consequent):
    """``(a1 & ... & am) -> (b1 | ... | bk)`` over the given literal texts."""
    return formula_sequent(
        f"({' & '.join(antecedent)}) -> ({' | '.join(consequent)})")


@pytest.mark.parametrize("m", [1, 7, 13, 19])
def test_literal_falsifier_in_a_late_block(m):
    # 20 keys, 16 of them in a block: p1 is in the antecedent, so the only
    # falsifier sets the first key to 1 and lies in the upper half of blocks
    others = list(range(2, 21))
    random.Random(m).shuffle(others)
    antecedent, consequent = [1] + others[:m - 1], others[m - 1:]
    s = literal_sequent([f"p{a}" for a in antecedent],
                        [f"p{b}" for b in consequent])
    expected = {**{("c", a): 1 for a in antecedent},
                **{("c", b): 0 for b in consequent}}
    for mode in ("plain", "faithful"):
        for verdict in (brute_consequence(s, mode), decide(s, mode)):
            assert verdict.status == "invalid"
            assert verdict.countermodel.entries == expected


def test_crossed_literal_sequent_is_faithful_valid():
    # p1 and ~~p1 read one faithful key (20 keys) but two raw ones (21)
    s = literal_sequent([f"p{a}" for a in range(1, 20)], ["~~p1", "~~p20"])
    for verdict in (brute_consequence(s, "faithful"), decide(s, "faithful")):
        assert verdict.valid
    expected = {**{("c", a): 1 for a in range(1, 20)},
                ("nnc", 1): 0, ("nnc", 20): 0}
    for verdict in (brute_consequence(s), decide(s)):
        assert verdict.status == "invalid"
        assert verdict.countermodel.entries == expected


@pytest.mark.parametrize("keys", [24, 26])
def test_enumeration_memory_is_flat_in_the_cap(keys):
    import tracemalloc
    half = keys // 2
    s = literal_sequent([f"p{a}" for a in range(1, half + 1)],
                        [f"p{b}" for b in range(half + 1, keys + 1)])
    tracemalloc.start()
    try:
        assert brute_consequence(s, cap=keys).status == "invalid"
        assert decide(s, "faithful", cap=keys).status == "invalid"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # 2^24 rows as whole packed columns peak near 62 MiB


def test_column_masks_match_their_definition():
    # bit r of column i is bit w-1-i of r, and full has a bit for every row
    for w in range(17):
        columns, full = semantics._column_masks(w)
        assert full == (1 << (1 << w)) - 1
        assert len(columns) == w
        for i, column in enumerate(columns):
            bits = "".join(str(r >> (w - 1 - i) & 1) for r in reversed(range(1 << w)))
            assert column == int(bits, 2)


def block_loop(s, keys, column, cap):
    """Every block in binary order until one falsifies, with no pruning;
    oracle for the pruned walk of ``semantics._first_falsifier``."""
    if len(keys) > cap:
        raise CapacityError(f"{len(keys)} keys exceed the enumeration cap")
    width = len(keys)
    low = min(width, semantics._BLOCK_WIDTH)
    high = width - low
    columns, full = semantics._column_masks(low)
    table = dict(zip(keys[high:], columns))

    def leaf(seq, atom):
        return table[column(seq, atom)]

    ops = (full.__xor__, and_, or_, lambda x, y: (full ^ x) | y)
    for block in range(1 << high):
        for i, key in enumerate(keys[:high]):
            table[key] = full if (block >> (high - 1 - i)) & 1 else 0
        falsified = full ^ fold(s.conclusion, "", leaf, *ops)
        for premise in s.premises:
            if not falsified:
                break
            falsified &= fold(premise, "", leaf, *ops)
        if falsified:
            row = block << low | ((falsified & -falsified).bit_length() - 1)
            return {keys[i]: (row >> (width - 1 - i)) & 1 for i in range(width)}
    return None


def literal_tree(rng, atoms, kinds):
    """Random bracketing of literals ``p``, ``~p`` and ``~~p`` over ``atoms``,
    each join one of ``kinds``."""
    if len(atoms) == 1:
        atom = Atom(atoms[0])
        return rng.choice((atom, atom, Neg(atom), Neg(Neg(atom))))
    cut = rng.randint(1, len(atoms) - 1)
    return rng.choice(kinds)(literal_tree(rng, atoms[:cut], kinds),
                             literal_tree(rng, atoms[cut:], kinds))


def keyed_sequent(rng, fewest, most):
    """Random sequent with ``fewest`` to ``most`` raw keys: up to two
    premises and a conclusion over literals, atoms drawn with repeats, and
    in a third of those with premises a premise as one disjunct of the
    conclusion, so that some sequents are valid."""
    while True:
        n = rng.randint(fewest, most + 1)
        pool = rng.randint(n // 2, 2 * n)
        atoms = [rng.randint(1, pool) for _ in range(n)]
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 2))))
        parts = [atoms[i:j] for i, j in zip([0] + cuts, cuts + [n])]
        premises = tuple(literal_tree(rng, part, (And, And, Or))
                         for part in parts[:-1])
        kinds = rng.choice(((And, Or, Imp), (And, And, Or), (Or, Or, And, Imp)))
        conclusion = literal_tree(rng, parts[-1], kinds)
        if premises and rng.random() < 0.3:
            conclusion = Or(*rng.sample((rng.choice(premises), conclusion), 2))
        s = Sequent(premises, conclusion)
        if fewest <= len(relevant_domain(s)) <= most:
            return s


def outcomes(s):
    """Status and countermodel table of every enumerating decider."""
    verdicts = [classical_valid(s)]
    for mode in ("plain", "faithful"):
        verdicts += [brute_consequence(s, mode), decide(s, mode)]
    return [(v.status, v.countermodel and v.countermodel.entries)
            for v in verdicts]


def test_pruned_walk_matches_the_block_loop(monkeypatch):
    # 17-23 keys: 2-128 blocks, with Kleene checks from 19 keys on
    rng = random.Random(1601)
    cases = [keyed_sequent(rng, 17, 23) for _ in range(2000)]
    pruned = [outcomes(s) for s in cases]
    monkeypatch.setattr(semantics, "_first_falsifier", block_loop)
    assert pruned == [outcomes(s) for s in cases]


@pytest.mark.parametrize("block_width", [1, 2])
def test_pruned_walk_matches_scalar_enumeration(monkeypatch, block_width):
    # blocks of 2 and 4 rows put the walk's checks at 4-9 keys
    monkeypatch.setattr(semantics, "_BLOCK_WIDTH", block_width)
    rng = random.Random(1602 + block_width)
    for _ in range(300):
        s = keyed_sequent(rng, 4, 9)
        classical = classical_valid(s)
        assert (classical.status, classical.countermodel
                and classical.countermodel.entries) == scalar_classical(s)
        for mode in ("plain", "faithful"):
            verdict = brute_consequence(s, mode)
            status, entries = scalar_brute(s, mode)
            assert (verdict.status, verdict.countermodel
                    and verdict.countermodel.entries) == (status, entries)
            assert decide(s, mode).status == status


def count_folds(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(None)
        return fold(*args)

    monkeypatch.setattr(semantics, "fold", counted)
    return calls


def test_decided_prefixes_are_skipped(monkeypatch):
    # 24 keys, 256 blocks: every prefix that sets an antecedent atom to 0
    # or a consequent atom to 1 is decided; the block loop folds once per
    # block up to the last, plus once for the key domain
    s = literal_sequent([f"p{a}" for a in range(1, 13)],
                        [f"p{b}" for b in range(13, 25)])
    calls = count_folds(monkeypatch)
    verdict = brute_consequence(s)
    assert verdict.countermodel.entries == {
        **{("c", a): 1 for a in range(1, 13)},
        **{("c", b): 0 for b in range(13, 25)}}
    assert len(calls) <= 32


def test_the_whole_prefix_decides(monkeypatch):
    # p1 = 1 makes the conclusion true, so the walk sets p1 to 0; then
    # p2 = 0 falsifies the premise and p2 = 1 makes the conclusion true,
    # which p2 alone decides neither way, and the walk ends at p2
    s = parse_sequent("p1 | p2 |- " + " | ".join(f"p{i}" for i in range(1, 25)))
    calls = count_folds(monkeypatch)
    assert brute_consequence(s).valid
    assert len(calls) <= 2 + 2 * 2 * 2  # key domain, then two checks per key


def test_undecided_prefixes_cost_two_checks(monkeypatch):
    # no prefix decides excluded middle: both children of the root
    # survive, and every one of the 2^4 blocks runs after the two checks
    s = formula_sequent(" & ".join(f"(p{i} | ~p{i})" for i in range(1, 21)))
    calls = count_folds(monkeypatch)
    assert classical_valid(s).valid
    assert len(calls) <= 2 ** (20 - 16) + 2 * 4 + 2
