"""Golden outputs: every CLI command's exact bytes on a seeded corpus.

``tests/golden.json`` holds one short sha256 per ``main(argv)`` call, over
the argv, the exit code, stdout, stderr and the ``-o`` file if any, grouped
by command.  The inputs come from ``random.Random("golden/<group>")`` and
the generators below, not from ``lericone.generate``, so that a change to
the package's own generators moves no digest.  Temporary paths read as
``<tmp>``.  A call that argparse rejects would hash usage text that varies
across Python versions, so the corpus holds none.

A change that alters a digest on purpose regenerates the groups it changes
with

    PYTHONPATH=src python tests/regen_golden.py GROUP...

and says in CHANGES.md which calls changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")
TMP = "<tmp>"
MODES = ("plain", "faithful")

# -- formulas, as tuples: ("p", i), ("~", a), (op, a, b) ----------------------


def formula(rng, connectives, atoms=(1, 2, 3)):
    if connectives == 0:
        return ("p", rng.choice(atoms))
    op = rng.choice(("~", "&", "|", "->"))
    if op == "~":
        return ("~", formula(rng, connectives - 1, atoms))
    left = rng.randint(0, connectives - 1)
    return (op, formula(rng, left, atoms), formula(rng, connectives - 1 - left, atoms))


def text(f, top=True):
    """Fully parenthesised concrete syntax, so that every shape parses back."""
    if f[0] == "p":
        return f"p{f[1]}"
    if f[0] == "~":
        return "~" + text(f[1], False)
    inner = f"{text(f[1], False)} {f[0]} {text(f[2], False)}"
    return inner if top else f"({inner})"


def sequent(rng, atoms=(1, 2, 3), most=5):
    premises = [text(formula(rng, rng.randint(0, most), atoms))
                for _ in range(rng.choice((0, 0, 1, 2, 3)))]
    conclusion = text(formula(rng, rng.randint(1, most), atoms))
    if not premises and rng.random() < 0.5:
        return conclusion
    return ", ".join(premises) + " |- " + conclusion


def implication(rng, atoms=(1, 2, 3)):
    return ("->", formula(rng, rng.randint(0, 3), atoms),
            formula(rng, rng.randint(0, 3), atoms))


# -- substitution tables and Hilbert proofs -----------------------------------


def table(rng, keying, atoms=(1, 2, 3)):
    entries = {}
    for _ in range(rng.randint(1, 4)):
        atom = rng.choice(atoms)
        image = text(formula(rng, rng.randint(0, 2), atoms))
        if keying == "plain":
            entries[(None, atom)] = {"atom": atom, "image": image}
            continue
        word = "".join(rng.choice("lrn") for _ in range(rng.randint(0, 3)))
        if keying == "faithful":  # a faithful key: nn-free, ending in c
            word = word.replace("nn", "n") + "c"
        elif rng.random() < 0.7:
            word += "c"
        entries[(word, atom)] = {"seq": word, "atom": atom, "image": image}
    return {"keying": keying, "entries": list(entries.values())}


def _axioms(x, y, z):
    return {
        "A1": ("->", x, x),
        "A2": ("->", ("&", x, y), x),
        "A3": ("->", x, ("|", x, y)),
        "A4": ("->", ("&", x, ("|", y, z)), ("|", ("&", x, y), ("&", x, z))),
        "A5": ("->", ("&", ("->", x, y), ("->", x, z)), ("->", x, ("&", y, z))),
        "A6": ("->", ("&", ("->", x, z), ("->", y, z)), ("->", ("|", x, y), z)),
        "A7": ("->", ("~", ("&", x, y)), ("|", ("~", x), ("~", y))),
        "A8": ("->", ("&", ("~", x), ("~", y)), ("~", ("|", x, y))),
        "A9": ("->", ("~", ("~", x)), x),
    }


def proof(rng, logic, steps):
    """A valid proof in ``logic``: axiom instances and rule moves."""
    lines = []  # (formula, justification)

    def axiom(name=None, x=None):
        x = x or formula(rng, rng.randint(0, 1), (1, 2))
        names = [a for a in _axioms(x, x, x) if logic == "B" or a != "A9"]
        name = name or rng.choice(names)
        lines.append((_axioms(x, formula(rng, rng.randint(0, 1), (1, 2)),
                              formula(rng, 0, (1, 2)))[name], {"axiom": name}))
        return len(lines)

    def rule(name, conclusion, *refs):
        lines.append((conclusion, {"rule": name, "from": list(refs)}))

    def implications():
        return [i for i, (f, _) in enumerate(lines, 1) if f[0] == "->"]

    axiom()
    for _ in range(steps):
        move = rng.choice(("axiom", "R1", "R2", "R3", "R4")
                          + (("R5",) if logic == "B" else ()))
        if move == "axiom":
            axiom()
        elif move == "R1":
            i, j = rng.randint(1, len(lines)), rng.randint(1, len(lines))
            rule("R1", ("&", lines[i - 1][0], lines[j - 1][0]), i, j)
        elif move == "R2":  # from X and X -> (X | Y), conclude X | Y
            i = rng.randint(1, len(lines))
            j = axiom("A3", lines[i - 1][0])
            rule("R2", lines[j - 1][0][2], i, j)
        elif move == "R3":
            i = rng.choice(implications())
            _, a, b = lines[i - 1][0]
            rule("R3", ("->", ("~", b), ("~", a)), i)
        elif move == "R4":
            i, j = rng.choice(implications()), rng.choice(implications())
            (_, a, b), (_, c, d) = lines[i - 1][0], lines[j - 1][0]
            rule("R4", ("->", ("->", b, c), ("->", a, d)), i, j)
        else:  # from ~X -> ~X conclude X -> ~~X
            x = formula(rng, rng.randint(0, 1), (1, 2))
            i = axiom("A1", ("~", x))
            rule("R5", ("->", x, ("~", ("~", x))), i)
    return {"logic": logic,
            "lines": [{"formula": text(f), "just": just} for f, just in lines]}


def corrupt(rng, doc):
    """``doc`` with one line broken: a wrong formula, axiom, rule or premise."""
    doc = json.loads(json.dumps(doc))
    line = rng.choice(doc["lines"])
    how = rng.choice(("formula", "name", "premise", "logic"))
    if how == "formula":
        line["formula"] = text(formula(rng, rng.randint(1, 3)))
    elif how == "name" and "axiom" in line["just"]:
        line["just"]["axiom"] = rng.choice(("A1", "A4", "A8", "A9", "A10"))
    elif how == "name":
        line["just"]["rule"] = rng.choice(("R1", "R2", "R3", "R5", "R6"))
    elif how == "premise" and "from" in line["just"]:
        line["just"]["from"][0] = rng.randint(0, len(doc["lines"]) + 1)
    else:
        doc["logic"] = "BM" if doc["logic"] == "B" else "B"
    return doc


# -- the corpus ---------------------------------------------------------------
# Each group yields (argv, files): ``files`` maps a name under <tmp> to the
# JSON document or raw text written there before the call.


def _with_json(argv):
    return [argv, argv + ["--json"]]


def group_prove_json(rng):
    for _ in range(180):
        s = sequent(rng)
        for mode in MODES:
            yield ["prove", "--json", "--method", "all", "--mode", mode, s], {}


def group_prove_text(rng):
    for _ in range(300):
        argv = ["prove", "--mode", rng.choice(MODES),
                "--method", rng.choice(("tableau", "brute", "skeleton", "all"))]
        if rng.random() < 0.15:
            argv += ["--cap", str(rng.randint(0, 3))]
        yield argv + [sequent(rng, atoms=(1, 2, 3, 4), most=6)], {}


def group_annotate(rng):
    for _ in range(120):
        for argv in _with_json(["annotate", text(formula(rng, rng.randint(0, 6)))]):
            yield argv, {}


def group_skeleton(rng):
    for _ in range(75):
        s = sequent(rng)
        mode = rng.choice(MODES)
        for godel in ([], ["--godel"]):
            for argv in _with_json(["skeleton", "--mode", mode, *godel, s]):
                yield argv, {}


def group_share(rng):
    for _ in range(110):
        f = implication(rng) if rng.random() < 0.9 else formula(rng, 2)
        for argv in _with_json(["share", "--mode", rng.choice(MODES), text(f)]):
            yield argv, {}


def group_substitute_godel(rng):
    for _ in range(130):
        f = text(formula(rng, rng.randint(0, 5), atoms=(1, 2, 3, 17, 400)))
        for argv in _with_json(["substitute", "--godel", f]):
            yield argv, {}
    # images whose index prints past the interpreter's 4,300-digit limit
    for f in ("p13000", "p14300", "p20000", "~p20000 -> p1"):
        for argv in _with_json(["substitute", "--godel", f]):
            yield argv, {}


def group_substitute_table(rng):
    for n in range(60):
        keying = ("raw", "faithful", "plain")[n % 3]
        name = f"table-{n}.json"
        files = {name: table(rng, keying)}
        for _ in range(2):
            f = text(formula(rng, rng.randint(0, 5)))
            for argv in _with_json(["substitute", f, "--table", f"{TMP}/{name}"]):
                yield argv, files


def group_check_proof(rng):
    for n in range(110):
        doc = proof(rng, rng.choice(("BM", "B")), rng.randint(0, 8))
        if n % 5 == 4:
            doc = corrupt(rng, doc)
        name = f"proof-{n}.json"
        for argv in _with_json(["check-proof", f"{TMP}/{name}"]):
            yield argv, {name: doc}


def group_transform_proof(rng):
    for n in range(100):
        logic = rng.choice(("BM", "B"))
        doc = proof(rng, logic, rng.randint(0, 6))
        if n % 5 == 4:
            doc = corrupt(rng, doc)
        keying = rng.choice(("raw", "faithful", "plain") if logic == "BM"
                            else ("faithful", "faithful", "plain", "raw"))
        files = {f"proof-{n}.json": doc, f"table-{n}.json": table(rng, keying)}
        argv = ["transform-proof", f"{TMP}/proof-{n}.json", f"{TMP}/table-{n}.json"]
        yield argv, files
        yield argv + ["-o", f"{TMP}/out-{n}.json"], files


def group_self_test(rng):
    yield ["self-test", "--seed", "0", "--json"], {}


_BAD_TEXTS = ["", " ", "p", "p0", "p01", "p1 &", "(p1", "p1)", "p1 p2", "~",
              "p1 -> -> p2", "p¹", "p1 |-", "|- p1", ", |- p1",
              "p1, , p2 |- p1", "p1 |- p2 |- p3", "-p1", "--h", "((p1)",
              "p1 && p2", "p1 <- p2", "P1", "p1 - > p2", "p" + "9" * 5000]
_BAD_DOCS = ["{", "[1,", "", "null", "[]", "5", '"x"',
             {"logic": "X", "lines": []}, {"logic": "BM", "lines": "x"},
             {"logic": "BM"}, {"lines": []},
             {"logic": "BM", "lines": [{"just": {"axiom": "A1"}}]},
             {"logic": "BM", "lines": [{"formula": "p1 ->", "just": {"axiom": "A1"}}]},
             {"logic": "BM", "lines": [{"formula": "p1 -> p1", "just": {}}]},
             {"logic": "BM", "lines": [{"formula": "p1 -> p1", "just": {"axiom": 1}}]},
             {"logic": "BM", "lines": [{"formula": "p1 -> p1",
                                        "just": {"rule": "R1", "from": ["1"]}}]},
             {"keying": "odd", "entries": []},
             {"keying": "raw", "entries": [{"seq": "cx", "atom": 1, "image": "p2"}]},
             {"keying": "raw", "entries": [{"seq": "c", "atom": 0, "image": "p2"}]},
             {"keying": "raw", "entries": [{"seq": "c", "atom": 1, "image": "p2 &"}]},
             {"keying": "raw", "entries": [{"seq": "c", "atom": 1, "image": "p2"},
                                           {"seq": "c", "atom": 1, "image": "p3"}]},
             {"keying": "plain", "entries": [{"atom": 1}]},
             [{"seq": "c", "atom": 1, "image": "p2"}],
             "[" * 100_000 + "]" * 100_000]
_GOOD_PROOF = {"logic": "BM", "lines": [
    {"formula": "p1 -> p1", "just": {"axiom": "A1"}}]}
_GOOD_TABLE = {"keying": "raw", "entries": [{"seq": "c", "atom": 1, "image": "p2"}]}


def group_malformed(rng):
    garbage = [
        "".join(rng.choice("p0123456789~&|->() ,x") for _ in range(rng.randint(1, 12)))
        for _ in range(30)]
    for t in _BAD_TEXTS + garbage:
        yield ["prove", "--method", "tableau", "--", t], {}
        yield ["annotate", "--", t], {}
        yield ["skeleton", "--", t], {}
        yield ["share", "--", t], {}
        yield ["substitute", "--godel", "--", t], {}
    yield ["substitute", "p1"], {}
    yield ["share", "p1 & p2"], {}
    yield ["prove", "--cap", "-1", "p1 -> p1"], {}
    files = {"good-proof.json": _GOOD_PROOF, "good-table.json": _GOOD_TABLE}
    for n, doc in enumerate(_BAD_DOCS):
        name = f"bad-{n}.json"
        bad = {name: doc, **files}
        yield ["check-proof", f"{TMP}/{name}"], bad
        yield ["transform-proof", f"{TMP}/{name}", f"{TMP}/good-table.json"], bad
        yield ["transform-proof", f"{TMP}/good-proof.json", f"{TMP}/{name}"], bad
        yield ["substitute", "~p1 -> (p1 -> p2)", "--table", f"{TMP}/{name}"], bad
    missing = f"{TMP}/missing.json"
    yield ["check-proof", missing], {}
    yield ["transform-proof", missing, missing], {}
    yield ["substitute", "p1", "--table", missing], {}
    yield ["transform-proof", f"{TMP}/good-proof.json", f"{TMP}/good-table.json",
           "-o", f"{TMP}/no-such-dir/out.json"], files


def _deep(kind, levels):
    if kind == "neg":
        return "~" * levels + "p1"
    if kind == "imp":  # right-nested
        return " -> ".join(f"p{i % 3 + 1}" for i in range(levels + 1))
    if kind == "and":  # left-nested
        return " & ".join(f"p{i % 3 + 1}" for i in range(levels + 1))
    return "(" * levels + "p1" + ")" * levels  # parentheses add no depth


def group_deep(rng):
    # Levels stay clear of the depths at which recursion gives out (about
    # 400-500 for ==/hash and 1,000 for render), so that the stack depth
    # under which main runs does not decide the output.
    for kind in ("neg", "imp", "and", "paren"):
        for levels in (600, 700, 1500, 2500):
            f = _deep(kind, levels)
            yield ["prove", "--method", "tableau", f], {}
            yield ["prove", "--json", f], {}
            yield ["skeleton", f], {}
            doc = {"logic": "BM", "lines": [{"formula": f"({f}) -> ({f})",
                                             "just": {"axiom": "A1"}}]}
            yield ["check-proof", f"{TMP}/deep-{kind}-{levels}.json"], {
                f"deep-{kind}-{levels}.json": doc}
            if levels <= 700:  # the larger ones cost a second each
                yield ["share", "--json", f"p1 -> ({f})"], {}
                yield ["substitute", "--godel", f], {}
            if levels == 600:  # annotate prints O(levels ** 2) characters
                yield ["annotate", f], {}


GROUPS = {name[len("group_"):]: fn for name, fn in globals().items()
          if name.startswith("group_")}


def cases(group):
    return list(GROUPS[group](random.Random(f"golden/{group}")))


# -- running and hashing --------------------------------------------------------


def call(argv, files, tmp):
    """Run ``main`` on ``argv`` with ``files`` written under ``tmp``; the
    short digest of what it produced."""
    from lericone.cli import main

    for name, doc in files.items():
        path = Path(tmp, name)
        if not path.exists():
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    real = [arg.replace(TMP, tmp) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(real)
    written = None
    if "-o" in real:
        target = Path(real[real.index("-o") + 1])
        if target.exists():
            written = target.read_text()
            target.unlink()
    record = [argv, code, out.getvalue(), err.getvalue(), written]
    data = json.dumps(record).replace(json.dumps(tmp)[1:-1], TMP)
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def digests(group):
    with tempfile.TemporaryDirectory() as tmp:
        return [call(argv, files, tmp) for argv, files in cases(group)]


def test_golden_outputs():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(GROUPS)
    for group, expected in golden.items():
        got = digests(group)
        for (argv, _), want, have in zip(cases(group), expected, got):
            assert have == want, f"group {group!r}: output changed for {argv!r}"
        assert len(got) == len(expected), f"group {group!r}: corpus size changed"
