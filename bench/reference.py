"""Independent reference for the sequence rule, used by the benchmark's checks.

Nothing here imports ``lericone``: the checks compare the program's
outputs against this code, so a change to the program cannot change
what counts as correct.

Formulas are nested tuples: ``("p", i)``, ``("~", a)``, ``("&", a, b)``,
``("|", a, b)``, ``("->", a, b)``.  Every traversal uses an explicit
stack, so inputs nested thousands of levels deep are handled.

The sequence rule, written once in :func:`children`: ``~`` prepends
``n``; ``->`` sends both sides to ``c`` from the empty sequence and
otherwise prepends ``l`` (antecedent) or ``r`` (consequent); ``&`` and
``|`` pass the sequence through.  Sequences are strings, innermost
symbol first.
"""

from __future__ import annotations

import itertools
import re

BINARY = ("&", "|", "->")
_PREC = {"->": 1, "|": 2, "&": 3}
_TOKEN = re.compile(r"\s*(?:(->)|(p\d+)|([~&|()]))")


# -- the sequence rule ---------------------------------------------------------

def children(node: tuple, seq: str) -> list:
    """``(selector, child, child sequence)`` for each child of ``node``."""
    op = node[0]
    if op == "p":
        return []
    if op == "~":
        return [("only", node[1], "n" + seq)]
    if op == "->":
        if seq == "":
            return [("left", node[1], "c"), ("right", node[2], "c")]
        return [("left", node[1], "l" + seq), ("right", node[2], "r" + seq)]
    return [("left", node[1], seq), ("right", node[2], seq)]


def reduct(seq: str) -> str:
    """Cancel adjacent ``nn`` pairs until none is left."""
    out: list = []
    for ch in seq:
        if ch == "n" and out and out[-1] == "n":
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def faithful_key(seq: str) -> str:
    """Reduct, then a final ``l``/``r`` becomes ``c``."""
    red = reduct(seq)
    if red and red[-1] in "lr":
        return red[:-1] + "c"
    return red


# -- syntax ----------------------------------------------------------------------

def parse(text: str) -> tuple:
    """Precedence climbing with explicit stacks: ``~`` > ``&`` > ``|`` > ``->``,
    ``->`` right-associative, ``&``/``|`` left-associative."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad input at offset {pos}: {text[pos:pos + 10]!r}")
        tokens.append(m.group(m.lastindex))
        pos = m.end()
    operands: list = []
    operators: list = []  # "(", "~", or a binary symbol

    def reduce_top() -> None:
        op = operators.pop()
        if op == "~":
            operands.append(("~", operands.pop()))
        else:
            right = operands.pop()
            operands.append((op, operands.pop(), right))

    expect_operand = True
    for tok in tokens:
        if expect_operand:
            if tok in ("~", "("):
                operators.append(tok)
            elif tok.startswith("p"):
                index = int(tok[1:])
                if index < 1:
                    raise ValueError("atom index must be >= 1")
                operands.append(("p", index))
                while operators and operators[-1] == "~":
                    reduce_top()
                expect_operand = False
            else:
                raise ValueError(f"unexpected {tok!r}")
        elif tok == ")":
            while operators and operators[-1] != "(":
                reduce_top()
            if not operators:
                raise ValueError("unbalanced parenthesis")
            operators.pop()
            while operators and operators[-1] == "~":
                reduce_top()
        elif tok in _PREC:
            prec = _PREC[tok]
            while (operators and operators[-1] in _PREC
                   and (_PREC[operators[-1]] > prec
                        or (_PREC[operators[-1]] == prec and tok != "->"))):
                reduce_top()
            operators.append(tok)
            expect_operand = True
        else:
            raise ValueError(f"unexpected {tok!r}")
    if expect_operand:
        raise ValueError("unexpected end of input")
    while operators:
        if operators[-1] == "(":
            raise ValueError("unbalanced parenthesis")
        reduce_top()
    if len(operands) != 1:
        raise ValueError("malformed formula")
    return operands[0]


def parse_sequent(text: str) -> tuple:
    """``(premises, conclusion)`` from ``A1, ..., An |- B`` or a bare formula."""
    if "|-" in text:
        left, right = text.split("|-", 1)
        return (tuple(parse(part) for part in left.split(",") if part.strip()),
                parse(right))
    return (), parse(text)


def render(f: tuple) -> str:
    """Concrete syntax; every binary operand that is itself binary is
    parenthesised."""
    out: list = []
    stack: list = [f]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item[0] == "p":
            out.append(f"p{item[1]}")
        elif item[0] == "~":
            out.append("~")
            stack.extend(_operand(item[1]))
        else:
            stack.extend(_operand(item[2]))
            stack.append(f" {item[0]} ")
            stack.extend(_operand(item[1]))
    return "".join(out)


def _operand(f: tuple) -> list:
    """Stack items for an operand, in pop order reversed."""
    return [")", f, "("] if f[0] in BINARY else [f]


def render_sequent(premises, conclusion) -> str:
    if not premises:
        return render(conclusion)
    return ", ".join(render(p) for p in premises) + " |- " + render(conclusion)


def fold(f: tuple, leaf, combine, seq: str = ""):
    """Post-order fold under the sequence rule: ``leaf(seq, atom)`` at atom
    occurrences, ``combine(op, child results)`` at connectives."""
    done: list = []
    stack: list = [(f, seq, False)]
    while stack:
        node, s, expanded = stack.pop()
        if node[0] == "p":
            done.append(leaf(s, node[1]))
        elif not expanded:
            stack.append((node, s, True))
            for _, child, cs in reversed(children(node, s)):
                stack.append((child, cs, False))
        else:
            arity = len(node) - 1
            kids = done[-arity:]
            del done[-arity:]
            done.append(combine(node[0], kids))
    return done[0]


def _build(op: str, kids: list) -> tuple:
    return (op,) + tuple(kids)


def mirror(f: tuple) -> tuple:
    """Swap the operands of every ``&`` and ``|``."""
    return fold(f, lambda _seq, atom: ("p", atom),
                lambda op, kids: (op, kids[1], kids[0]) if op in ("&", "|")
                else _build(op, kids))


# -- annotation, evaluation, substitution image ------------------------------------

def seq_at(f: tuple, path) -> tuple:
    """``(sequence, subformula)`` at an occurrence path from the root."""
    node, seq = f, ""
    for selector in path:
        for sel, child, child_seq in children(node, seq):
            if sel == selector:
                node, seq = child, child_seq
                break
        else:
            raise ValueError(f"path selector {selector!r} does not fit {node[0]!r}")
    return seq, node


def annotate(f: tuple) -> list:
    """``(path, sequence)`` for every occurrence, root first, left to right."""
    out: list = []
    stack: list = [((), f, "")]
    while stack:
        path, node, seq = stack.pop()
        out.append((path, seq))
        for sel, child, child_seq in reversed(children(node, seq)):
            stack.append((path + (sel,), child, child_seq))
    return out


def keys(f: tuple, mode: str, seq: str = "") -> set:
    """``(key sequence, atom)`` pairs consulted when evaluating ``f`` from ``seq``;
    faithful mode keys sequences by :func:`faithful_key`."""
    out: set = set()
    stack: list = [(f, seq)]
    while stack:
        node, s = stack.pop()
        if node[0] == "p":
            out.add((faithful_key(s) if mode == "faithful" else s, node[1]))
        else:
            stack.extend((child, cs) for _, child, cs in children(node, s))
    return out


_TRUTH = {
    "~": lambda kids: 1 - kids[0],
    "&": min,
    "|": max,
    "->": lambda kids: max(1 - kids[0], kids[1]),
}


def evaluate(f: tuple, value, seq: str = "") -> int:
    """Bit of ``f`` at ``seq``; ``value(seq, atom)`` gives atom bits."""
    return fold(f, value, lambda op, kids: _TRUTH[op](kids), seq)


def falsifies(value, premises, conclusion) -> bool:
    return (all(evaluate(p, value) == 1 for p in premises)
            and evaluate(conclusion, value) == 0)


def image(f: tuple, lookup, seq: str = "") -> tuple:
    """Substitution image of ``f`` at ``seq``; ``lookup(seq, atom)`` gives the
    image of an atom occurrence."""
    return fold(f, lookup, _build, seq)


def table_lookup(table: dict):
    """Lookup for a substitution table in the wire format
    ``{"keying", "entries": [{"seq", "atom", "image"}]}``; unlisted keys
    map to the atom itself."""
    keying = table.get("keying", "raw")
    images = {}
    for entry in table["entries"]:
        seq = entry.get("seq", "")
        key = (faithful_key(seq) if keying == "faithful" else seq, int(entry["atom"]))
        images[key if keying != "plain" else int(entry["atom"])] = parse(entry["image"])

    def lookup(seq: str, atom: int) -> tuple:
        if keying == "plain":
            return images.get(atom, ("p", atom))
        key = faithful_key(seq) if keying == "faithful" else seq
        return images.get((key, atom), ("p", atom))

    return lookup


def assignment_value(data: dict):
    """``value(seq, atom)`` for an assignment in the wire format
    ``{"default", "keying", "entries": [{"seq", "atom", "value"}]}``."""
    keying = data.get("keying", "faithful" if data.get("faithful") else "raw")
    default = int(data.get("default", 0))
    if keying == "plain":
        bits = {int(e["atom"]): int(e["value"]) for e in data["entries"]}
        return lambda seq, atom: bits.get(atom, default)
    norm = faithful_key if keying == "faithful" else (lambda s: s)
    bits = {(norm(e.get("seq", "")), int(e["atom"])): int(e["value"])
            for e in data["entries"]}
    return lambda seq, atom: bits.get((norm(seq), atom), default)


def brute_valid(premises, conclusion, mode: str) -> bool:
    """Validity by enumerating every assignment on the consulted keys; only
    for small key domains."""
    domain = set()
    for f in tuple(premises) + (conclusion,):
        domain |= keys(f, mode)
    order = sorted(domain)
    norm = faithful_key if mode == "faithful" else (lambda s: s)
    for bits in itertools.product((0, 1), repeat=len(order)):
        table = dict(zip(order, bits))
        if falsifies(lambda s, a: table[(norm(s), a)], premises, conclusion):
            return False
    return True


def godel(seq: str, atom: int) -> int:
    """Prime-power code: the i-th symbol (1-based) contributes the (i+1)-th
    prime to the power l=1, r=2, c=3, n=4; the atom contributes 2^atom."""
    code = 2 ** atom
    primes = _primes(len(seq) + 1)
    for i, ch in enumerate(seq):
        code *= primes[i + 1] ** ("lrcn".index(ch) + 1)
    return code


def _primes(count: int) -> list:
    out: list = []
    candidate = 2
    while len(out) < count:
        if all(candidate % p for p in out):
            out.append(candidate)
        candidate += 1
    return out


def self_check() -> None:
    """The paper's worked examples; raises AssertionError on a mismatch."""
    f = parse("~p1 -> (p1 -> p2)")
    atom_seqs = [seq for path, seq in annotate(f) if seq_at(f, path)[1][0] == "p"]
    assert atom_seqs == ["nc", "lc", "rc"], atom_seqs
    g = parse("~p1 -> (p1 -> p1)")
    coded = render(image(g, lambda seq, atom: ("p", godel(seq, atom))))
    assert coded == "~p20250 -> (p750 -> p2250)", coded
    h = parse("p1 -> ~~p1")
    assert not brute_valid((), h, "plain")
    assert brute_valid((), h, "faithful")
    deep = parse("~" * 3000 + "(p1 -> p1)")
    # tuples this deep must not be compared with ==, which recurses in C
    assert render(parse(render(deep))) == render(deep)
    assert keys(deep, "faithful") == {("c", 1)}
    assert len(keys(deep, "plain")) == 2


if __name__ == "__main__":
    self_check()
    print("reference: paper examples reproduced")
