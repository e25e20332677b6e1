"""Seeded inputs for the benchmark's workloads, as concrete syntax and JSON.

The generator uses only :mod:`reference`, never ``lericone``, so a change
to the program cannot change what is measured.  Each workload's list of
operations depends on the seed and on the run length in seconds; the
same pair always gives the same list.  Every operation is one JSON
record; what the checks expect (verdicts, falsifiers, key counts) comes
from constructions whose answer is known in closed form or from the
reference.
"""

from __future__ import annotations

import itertools
import json
import random

import reference as R

MODES = ("plain", "faithful")

# Operation-list sizes per second of list, set so that a list for
# ``seconds`` holds about that much work with the program as first
# benchmarked (Python 3.11.7, 2 cores); see README.md.
CORPUS_SHARE_PER_SECOND = 1 / 25      # share of the acceptance corpus (see corpus)
TABLEAU_CYCLES_PER_SECOND = 5         # one TABLEAU_CYCLE
ENUM_SECONDS_PER_CYCLE = 1.8          # one ENUM_CYCLE
TRANSFORM_CYCLES_PER_SECOND = 24      # one TRANSFORM_CYCLE

# Every list holds at least this many operations, so that at least ten
# lie beyond the 90th percentile.
MIN_OPS = 100

DEEP_NEGATIONS = 520  # just past the ~500 levels at which every call fails today


def random_formula(rng: random.Random, atoms: int, connectives: int) -> tuple:
    """Random shape with exactly ``connectives`` connectives over p1..p<atoms>."""
    if connectives == 0:
        return ("p", rng.randint(1, atoms))
    op = rng.choice(("~", "&", "|", "->"))
    if op == "~":
        return ("~", random_formula(rng, atoms, connectives - 1))
    left = rng.randint(0, connectives - 1)
    return (op, random_formula(rng, atoms, left),
            random_formula(rng, atoms, connectives - 1 - left))


# -- corpus ----------------------------------------------------------------------

def exhaustive_layers(max_connectives: int, atoms=(1, 2)) -> list:
    """Every formula over ``atoms``, grouped by connective count."""
    layers = [[("p", i) for i in atoms]]
    for n in range(1, max_connectives + 1):
        layer = [("~", child) for child in layers[n - 1]]
        for left in range(n):
            for a in layers[left]:
                for b in layers[n - 1 - left]:
                    layer.extend((("&", a, b), ("|", a, b), ("->", a, b)))
        layers.append(layer)
    return layers


def deep_ops() -> list:
    """Sequents nested past today's recursion limit, with verdicts from the
    reference.  Each call raises RecursionError at the current program, so
    these are the run's failed operations."""
    out = []
    for text, mode in (("~" * DEEP_NEGATIONS + "(p1 -> p1)", "plain"),
                       ("~" * (DEEP_NEGATIONS + 1) + "p1 -> p1", "faithful")):
        premises, conclusion = R.parse_sequent(text)
        verdict = "valid" if R.brute_valid(premises, conclusion, mode) else "invalid"
        out.append({"text": text, "mode": mode, "verdict": verdict, "deep": True})
    return out


def corpus(rng: random.Random, seconds: float) -> list:
    """Stratified sample of the acceptance corpus (every formula up to 4
    connectives over p1, p2, plus 500 random ones with 8-15 connectives over
    p1-p3), each formula in both modes, plus the deep sequents.  The list
    holds twice the work per second of the other workloads' lists, so that
    the deep sequents, once they succeed (about 0.33 s together), stay a
    small share of a pass."""
    share = min(1.0, seconds * CORPUS_SHARE_PER_SECOND)
    randoms = [random_formula(rng, 3, rng.randint(8, 15)) for _ in range(500)]
    ops = deep_ops()
    for stratum in exhaustive_layers(4) + [randoms]:
        for f in rng.sample(stratum, round(share * len(stratum))):
            ops.extend({"text": R.render(f), "mode": mode} for mode in MODES)
    rng.shuffle(ops)
    return ops


# -- tableau_large -----------------------------------------------------------------

def tableau_size(premises, conclusion, mode: str, limit: int = 10 ** 9,
                 work: list = None) -> tuple:
    """``(steps, branches)`` of the program's tableau for the sequent, or
    ``(limit + 1, ...)`` as soon as it takes more than ``limit`` steps.
    ``work``, when given, is a one-element list that receives the finished
    branches summed over the steps (a leftmost-first search passes over
    them before each step); the walk then also stops once ``STEP_WORK *
    steps + work[0]`` passes ``limit``.
    Computed independently: the program always expands the oldest unprocessed triple
    on the leftmost open branch, which is a depth-first walk; a branch keeps
    one copy of each triple and closes as soon as it holds a formula signed
    both ways at one (faithful-mode: faithfully keyed) sequence."""
    norm = R.faithful_key if mode == "faithful" else (lambda seq: seq)

    def add(branch: list, triple: tuple) -> None:
        triples, members, keyed = branch[0], branch[1], branch[2]
        if branch[3] or triple in members:
            return
        triples.append(triple)
        members.add(triple)
        seq, sign, f = triple
        keyed.add((norm(seq), sign, f))
        if (norm(seq), 1 - sign, f) in keyed:
            branch[3] = True

    root = [[], set(), set(), False, 0]  # triples, members, keys, closed, processed
    for p in premises:
        add(root, ("", 1, p))
    add(root, ("", 0, conclusion))
    steps = branches = 0
    pending = [root]
    while pending:
        branch = pending.pop()
        triples = branch[0]
        split = None
        while not branch[3] and split is None:
            while branch[4] < len(triples) and triples[branch[4]][2][0] == "p":
                branch[4] += 1
            if branch[4] == len(triples):
                break  # saturated
            seq, sign, f = triples[branch[4]]
            branch[4] += 1
            steps += 1
            if steps > limit:
                return steps, branches
            if work is not None:
                work[0] += branches
                if STEP_WORK * steps + work[0] > limit:
                    return limit + 1, branches
            op = f[0]
            if op == "~":
                add(branch, ("n" + seq, 1 - sign, f[1]))
                continue
            sides = [(cs, 1 - sign if op == "->" and i == 0 else sign, child)
                     for i, (_, child, cs) in enumerate(R.children(f, seq))]
            if (op == "&") == (sign == 1):  # &+, |- and ->- extend the branch
                for triple in sides:
                    add(branch, triple)
            else:  # &-, |+ and ->+ split it
                split = sides
        if split is None:
            branches += 1
            continue
        for triple in reversed(split):
            child = [list(triples), set(branch[1]), set(branch[2]), False, branch[4]]
            add(child, triple)
            pending.append(child)
    return steps, branches


def classical_falsifier(premises, conclusion, atoms: int):
    """A sequence-independent assignment falsifying the sequent, or None.
    Such an assignment is a countermodel in both modes."""
    for row in range(1 << atoms):
        value = (lambda _s, a, row=row: (row >> (a - 1)) & 1)
        if R.falsifies(value, premises, conclusion):
            return row
    return None


# One cycle of tableau_large sequents, each in both modes: a small
# invalid sequent, two mirror sequents and a large invalid one.  Each kind
# is sized into a narrow window (see tableau_size), so that every seed
# gives nearly the same costs, in that order: the median falls among the
# mirror sequents and the 90th percentile among the large invalid ones,
# not on a step between two kinds.  Mirror
# sequents are sized by their tableau steps; invalid ones, in both modes,
# by STEP_WORK per step plus the finished branches passed over before each
# step, which is how their time grows.
STEP_WORK = 50
TABLEAU_CYCLE = ("invalid_small", "mirror", "invalid_large", "mirror")
TABLEAU_WINDOWS = {
    "mirror": (70, 85),
    "invalid_small": (13_000, 17_000),
    "invalid_large": (160_000, 200_000),
}
INVALID_CONNECTIVES = {"invalid_small": (30, 40), "invalid_large": (40, 60)}


def ceiling_sequent() -> tuple:
    """A mirror sequent with 700-800 tableau steps, above every window, and the
    same for every seed: its proof is the run's largest, so the run's peak
    memory does not depend on the seed."""
    rng = random.Random("tableau_large/ceiling")
    while True:
        f = random_formula(rng, 4, 30)
        if 700 <= tableau_size((f,), R.mirror(f), "plain", 800)[0] < 800:
            return (f,), R.mirror(f)


def tableau_case(rng: random.Random, kind: str) -> tuple:
    """A sequent of ``kind`` whose size falls in the kind's window (an
    invalid one in both modes)."""
    low, high = TABLEAU_WINDOWS[kind]
    while True:
        if kind == "mirror":
            f = random_formula(rng, 4, rng.randint(15, 30))
            if low <= tableau_size((f,), R.mirror(f), "plain", high)[0] <= high:
                return (f,), R.mirror(f)
            continue
        total = rng.randint(*INVALID_CONNECTIVES[kind])
        split = rng.randint(total // 3, 2 * total // 3)
        premises = (random_formula(rng, 4, split),)
        conclusion = random_formula(rng, 4, total - split)
        for mode in MODES:
            work = [0]
            steps, _ = tableau_size(premises, conclusion, mode, high, work)
            if not low <= STEP_WORK * steps + work[0] <= high:
                break
        else:
            if classical_falsifier(premises, conclusion, 4) is not None:
                return premises, conclusion


def tableau_large(rng: random.Random, seconds: float) -> list:
    """Whole cycles of :data:`TABLEAU_CYCLE`: half mirror sequents
    ``F |- mirror(F)`` (valid by construction), half classically invalid
    ``P |- C``; 30-60 connectives over p1-p4 in total, each sequent in both
    modes.  The list starts with :func:`ceiling_sequent`."""
    cycles = max(round(seconds * TABLEAU_CYCLES_PER_SECOND),
                 -(-(MIN_OPS - len(MODES)) // (len(TABLEAU_CYCLE) * len(MODES))))
    ops = [{"text": R.render_sequent(*ceiling_sequent()), "mode": mode, "kind": "mirror"}
           for mode in MODES]
    for _ in range(cycles):
        for kind in TABLEAU_CYCLE:
            text = R.render_sequent(*tableau_case(rng, kind))
            for mode in MODES:
                ops.append({"text": text, "mode": mode, "kind": kind.split("_")[0]})
    return ops


# -- enum_wide -------------------------------------------------------------------

def _tree(rng: random.Random, op: str, parts: list) -> tuple:
    """Random bracketing of ``parts`` joined by ``op``."""
    if len(parts) == 1:
        return parts[0]
    cut = rng.randint(1, len(parts) - 1)
    return (op, _tree(rng, op, parts[:cut]), _tree(rng, op, parts[cut:]))


def literal_sequent(rng: random.Random, family: str, keys: int) -> dict:
    """``(a1 & ... & am) -> (b1 | ... | bk)`` over literals ``p`` or ``~~p``.

    A literal is true at the conclusion's root exactly when its key is 1:
    ``p`` reads key ``(c, p)`` and ``~~p`` reads ``(nnc, p)``, which the
    faithful key merges into ``(c, p)``.  So a falsifier sets every
    antecedent key to 1 and every consequent key to 0; the sequent is valid
    exactly when some key is on both sides, and otherwise that falsifier is
    the only one.

    Families: ``disjoint`` (distinct atoms, no ``~~``); ``merged`` (two
    atoms appear as both ``p`` and ``~~p`` on one side, so the faithful
    domain has two keys fewer); ``crossed`` (one atom is ``p`` in the
    antecedent and ``~~p`` in the consequent: invalid plain, valid
    faithful).  ``keys`` is the plain key count.
    """
    doubled = {"disjoint": 0, "merged": 2, "crossed": 1}[family]
    atoms = rng.sample(range(1, 41), keys - doubled)
    cut = rng.randint(keys // 3, keys - doubled - keys // 3)
    antecedent = [(a, False) for a in atoms[:cut]]
    consequent = [(a, False) for a in atoms[cut:]]
    if family == "merged":
        antecedent += [(atoms[0], True)]
        consequent += [(atoms[-1], True)]
    elif family == "crossed":
        consequent += [(atoms[0], True)]
    rng.shuffle(antecedent)
    rng.shuffle(consequent)

    def lit(atom: int, nn: bool) -> tuple:
        return ("~", ("~", ("p", atom))) if nn else ("p", atom)

    formula = ("->", _tree(rng, "&", [lit(*x) for x in antecedent]),
               _tree(rng, "|", [lit(*x) for x in consequent]))
    expected = {}
    for mode in MODES:
        want: dict = {}
        valid = False
        for side, bit in ((antecedent, 1), (consequent, 0)):
            for atom, nn in side:
                key = ("c" if nn and mode == "faithful" else ("nnc" if nn else "c"), atom)
                valid |= want.setdefault(key, bit) != bit
        expected[mode] = {"verdict": "valid" if valid else "invalid",
                          "keys": len(want),
                          "falsifier": None if valid else
                          [[seq, atom, bit] for (seq, atom), bit in sorted(want.items())]}
    return {"text": R.render(formula), "family": family, "expected": expected}


# One cycle of (family, plain key count).  Faithful key counts are the
# same (disjoint), two lower (merged) or one lower (crossed), so the 40
# operations have 18 keys (12 of them), 19 (16), 20, 21, 22, 23 (one each)
# and 24 (8).  The median falls in the middle of the 19-key operations and
# the 90th percentile among the 24-key ones.  At up to 19 keys the columns
# (2^19 bits each) fit in a core's own cache (2 MiB here); from 20 keys on
# they compete for the cache that the machine's other tenants share, and
# their time moved by up to 1.8x between runs of the same list, so the
# median is kept below that.
ENUM_CYCLE = ([("disjoint", 24)] * 4 + [("merged", 23), ("merged", 22)]
              + [("disjoint", 19)] * 6 + [("crossed", 19)] * 4 + [("disjoint", 18)] * 4)


def enum_wide(rng: random.Random, seconds: float) -> list:
    """Whole cycles of :data:`ENUM_CYCLE`, each sequent in both modes."""
    cycles = max(round(seconds / ENUM_SECONDS_PER_CYCLE),
                 -(-MIN_OPS // (len(ENUM_CYCLE) * len(MODES))))
    ops = []
    for _ in range(cycles):
        for family, keys in ENUM_CYCLE:
            case = literal_sequent(rng, family, keys)
            for mode in MODES:
                ops.append({"text": case["text"], "mode": mode,
                            "family": family, **case["expected"][mode]})
    rng.shuffle(ops)
    return ops


# -- proof_transform -------------------------------------------------------------

_A, _B, _C = ("p", 1), ("p", 2), ("p", 3)
AXIOMS = (
    ("A1", ("->", _A, _A)),
    ("A2", ("->", ("&", _A, _B), _A)),
    ("A2", ("->", ("&", _A, _B), _B)),
    ("A3", ("->", _A, ("|", _A, _B))),
    ("A3", ("->", _B, ("|", _A, _B))),
    ("A4", ("->", ("&", _A, ("|", _B, _C)), ("|", ("&", _A, _B), ("&", _A, _C)))),
    ("A5", ("->", ("&", ("->", _A, _B), ("->", _A, _C)), ("->", _A, ("&", _B, _C)))),
    ("A6", ("->", ("&", ("->", _A, _C), ("->", _B, _C)), ("->", ("|", _A, _B), _C))),
    ("A7", ("->", ("~", ("&", _A, _B)), ("|", ("~", _A), ("~", _B)))),
    ("A8", ("->", ("&", ("~", _A), ("~", _B)), ("~", ("|", _A, _B)))),
    ("A9", ("->", ("~", ("~", _A)), _A)),
)


def schemas(logic: str) -> tuple:
    return tuple(a for a in AXIOMS if logic == "B" or a[0] != "A9")


def instantiate(template: tuple, bind: dict) -> tuple:
    return R.fold(template, lambda _s, atom: bind[atom],
                  lambda op, kids: (op,) + tuple(kids))


class ProofLines:
    """Lines of a Hilbert proof in the wire format; premise numbers are 1-based."""

    def __init__(self, logic: str):
        self.logic = logic
        self.lines: list = []

    def emit(self, formula: tuple, just: dict) -> int:
        self.lines.append((formula, just))
        return len(self.lines)

    def axiom(self, rng: random.Random) -> int:
        """An instance of a random schema with metavariables bound to random
        formulas of at most one connective."""
        name, template = rng.choice(schemas(self.logic))
        bind = {i: random_formula(rng, 3, rng.randint(0, 1)) for i in (1, 2, 3)}
        return self.emit(instantiate(template, bind), {"axiom": name})

    def formula(self, line: int) -> tuple:
        return self.lines[line - 1][0]

    def to_json(self) -> dict:
        return {"logic": self.logic,
                "lines": [{"formula": R.render(f), "just": just} for f, just in self.lines]}


def reuse_proof(logic: str, levels: int, name: str, x: tuple) -> ProofLines:
    """The axiom X (an instance of schema ``name``), then per level: ``X & X``
    by R1 from the previous line taken twice, the A2 instance
    ``(X & X) -> X``, and X again by R2.  The transformer today rebuilds
    the previous line once per use."""
    proof = ProofLines(logic)
    last = proof.emit(x, {"axiom": name})
    for _ in range(levels):
        both = proof.emit(("&", x, x), {"rule": "R1", "from": [last, last]})
        major = proof.emit(("->", ("&", x, x), x), {"axiom": "A2"})
        last = proof.emit(x, {"rule": "R2", "from": [both, major]})
    return proof


def sized_formula(rng: random.Random, atoms: int, size: int) -> tuple:
    """Random shape with exactly ``size`` nodes over p1..p<atoms>."""
    if size == 1:
        return ("p", rng.randint(1, atoms))
    op = rng.choice(("~", "&", "|", "->")) if size > 2 else "~"
    if op == "~":
        return ("~", sized_formula(rng, atoms, size - 1))
    left = rng.randint(1, size - 2)
    return (op, sized_formula(rng, atoms, left), sized_formula(rng, atoms, size - 1 - left))


def sized_instance(rng: random.Random, template: tuple, low: int, high: int) -> tuple:
    """An instance of ``template`` with ``low`` to ``high`` nodes: picks the
    metavariables' sizes (1 to 8 nodes) among those that give such a count."""
    occurrences = {}

    def walk(f: tuple) -> int:
        if f[0] == "p":
            occurrences[f[1]] = occurrences.get(f[1], 0) + 1
            return 0
        return 1 + sum(walk(kid) for kid in f[1:])

    connectives = walk(template)
    names = sorted(occurrences)
    fits = [sizes for sizes in itertools.product(range(1, 9), repeat=len(names))
            if low <= connectives + sum(occurrences[v] * n
                                        for v, n in zip(names, sizes)) <= high]
    sizes = rng.choice(fits)
    return instantiate(template, {v: sized_formula(rng, 3, n) for v, n in zip(names, sizes)})


def tree_proof(rng: random.Random, logic: str, budget: int) -> ProofLines:
    """A proof with about ``budget`` rule steps in which every line but the
    last is used exactly once."""
    proof = ProofLines(logic)

    def implication(budget: int) -> int:
        """A line whose formula is an implication."""
        if budget <= 0:
            return proof.axiom(rng)
        move = rng.choice(("R3", "R4", "R4", "R5") if logic == "B" else ("R3", "R4", "R4"))
        if move == "R4":
            first = implication((budget - 1) // 2)
            second = implication(budget - 1 - (budget - 1) // 2)
            (a, b), (c, d) = proof.formula(first)[1:], proof.formula(second)[1:]
            return proof.emit(("->", ("->", b, c), ("->", a, d)),
                              {"rule": "R4", "from": [first, second]})
        line = implication(budget - 1 if move == "R3" else budget - 2)
        a, b = proof.formula(line)[1:]
        line = proof.emit(("->", ("~", b), ("~", a)), {"rule": "R3", "from": [line]})
        if move == "R3":
            return line
        # R3 always yields ~B -> ~A, the shape R5 needs: A -> ~~B
        return proof.emit(("->", a, ("~", ("~", b))), {"rule": "R5", "from": [line]})

    def any_line(budget: int) -> int:
        move = rng.choice(("R1", "R2", "imp")) if budget > 1 else "imp"
        if move == "R1":
            first = any_line((budget - 1) // 2)
            second = any_line(budget - 1 - (budget - 1) // 2)
            return proof.emit(("&", proof.formula(first), proof.formula(second)),
                              {"rule": "R1", "from": [first, second]})
        if move == "R2":
            minor = any_line(budget - 2)
            a = proof.formula(minor)
            other = random_formula(rng, 3, rng.randint(0, 1))
            major = proof.emit(("->", a, ("|", a, other)), {"axiom": "A3"})
            return proof.emit(("|", a, other), {"rule": "R2", "from": [minor, major]})
        return implication(budget)

    any_line(budget)
    return proof


def random_table(rng: random.Random, keying: str, conclusion: tuple) -> dict:
    """Up to three entries on keys that occur in the conclusion, each image
    with one connective."""
    occurrences = sorted(R.keys(conclusion, "raw"))
    entries = {}
    for _ in range(3):
        seq, atom = rng.choice(occurrences)
        if keying == "faithful":
            seq = R.faithful_key(seq)
        key = atom if keying == "plain" else (seq, atom)
        entries[key] = R.render(random_formula(rng, 4, 1))
    if keying == "plain":
        rows = [{"atom": a, "image": img} for a, img in sorted(entries.items())]
    else:
        rows = [{"seq": s, "atom": a, "image": img} for (s, a), img in sorted(entries.items())]
    return {"keying": keying, "entries": rows}


def nodes(f: tuple, memo=None) -> int:
    """Atoms plus connectives.  ``memo`` (keyed by ``id``) shares the count
    of subformulas that several formulas hold."""
    if f[0] == "p":
        return 1
    if memo is None:
        memo = {}
    if id(f) not in memo:
        memo[id(f)] = 1 + sum(nodes(kid, memo) for kid in f[1:])
    return memo[id(f)]


# One cycle of proof_transform slots: three proofs without reuse, one
# small and one large proof with reuse.  Each kind is sized into a narrow
# window, so that every seed gives nearly the same costs: the median
# falls among the proofs without reuse and the 90th percentile among the
# large proofs with reuse, not on a step between two kinds.
TRANSFORM_CYCLE = ("tree", "reuse_small", "tree", "reuse_large", "tree")
TREE_STEPS = 14
TREE_NODES = (650, 800)           # nodes over all lines
REUSE_LEVELS = {"reuse_small": 2, "reuse_large": 5}
REUSE_X_NODES = {"reuse_small": (5, 13), "reuse_large": (14, 16)}
REUSE_IMAGE_NODES = {"reuse_small": (5, 19), "reuse_large": (18, 21)}
# Bounds the tableau check on the transformed conclusion, which can take
# seconds on conclusions whose tableau has thousands of steps.
CHECK_STEPS_MAX = 200


def transform_case(rng: random.Random, kind: str, logic: str, keying: str,
                   schema) -> tuple:
    """A proof of ``kind`` and a table whose sizes fall in the kind's windows."""
    while True:
        if kind == "tree":
            proof = tree_proof(rng, logic, TREE_STEPS)
            memo: dict = {}
            size = sum(nodes(f, memo) for f, _ in proof.lines)
            if not TREE_NODES[0] <= size <= TREE_NODES[1]:
                continue
        else:
            x = sized_instance(rng, schema[1], *REUSE_X_NODES[kind])
            proof = reuse_proof(logic, REUSE_LEVELS[kind], schema[0], x)
        conclusion = proof.formula(len(proof.lines))
        table = random_table(rng, keying, conclusion)
        image = R.image(conclusion, R.table_lookup(table))
        if kind != "tree":
            low, high = REUSE_IMAGE_NODES[kind]
            if not low <= nodes(image) <= high:
                continue
        mode = "plain" if logic == "BM" else "faithful"
        if tableau_size((), image, mode, CHECK_STEPS_MAX)[0] <= CHECK_STEPS_MAX:
            return proof, table


def proof_transform(rng: random.Random, seconds: float) -> list:
    """Whole cycles of :data:`TRANSFORM_CYCLE`.  Within each kind, BM and B
    alternate, BM proofs get raw, faithful and plain tables in turn, B
    proofs faithful and plain, and proofs with reuse take every axiom
    schema of the logic in turn as their X."""
    cycles = max(round(seconds * TRANSFORM_CYCLES_PER_SECOND),
                 -(-MIN_OPS // len(TRANSFORM_CYCLE)))
    counts: dict = {}
    ops = []
    for _ in range(cycles):
        for kind in TRANSFORM_CYCLE:
            j = counts[kind] = counts.get(kind, -1) + 1
            logic = ("BM", "B")[j % 2]
            keyings = ("raw", "faithful", "plain") if logic == "BM" else ("faithful", "plain")
            pool = schemas(logic)
            proof, table = transform_case(rng, kind, logic, keyings[(j // 2) % len(keyings)],
                                          pool[(j // 2) % len(pool)])
            ops.append({"proof": json.dumps(proof.to_json()), "table": json.dumps(table),
                        "group": kind})
    return ops


WORKLOADS = {
    "corpus": corpus,
    "tableau_large": tableau_large,
    "enum_wide": enum_wide,
    "proof_transform": proof_transform,
}


def generate(workload: str, seed: int, seconds: float) -> list:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"), seconds)
