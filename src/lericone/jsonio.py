"""JSON encodings for the wire-facing objects.

Formulas travel as concrete-syntax strings.  Substitution tables are
``{"keying": ..., "entries": [{"seq", "atom", "image"}]}`` (plain tables
omit the seq field), assignments are ``{"default", "faithful",
"entries": [{"seq", "atom", "value"}]}``, proofs are
``{"logic", "lines": [{"formula", "just"}]}`` with 1-based premise
references, and tableau proofs serialise as a nested rule-application
tree with closure witnesses at the leaves.
"""

from __future__ import annotations

from contextlib import contextmanager
from reprlib import repr as _brief

from .formula import _parse_from, render
from .hilbert import AxiomRef, HilbertProof, ProofLine, RuleRef, match_axiom
from .relevance import SharingWitness
from .semantics import Assignment, Verdict
from .substitution import LericoneSubstitution, RenamingTable
from .tableau import TableauProof, Triple

__all__ = [
    "substitution_from_json",
    "assignment_to_json", "assignment_from_json",
    "verdict_to_json", "witness_to_json", "renaming_to_json",
    "proof_to_json", "proof_from_json", "tableau_proof_to_json",
]


@contextmanager
def _decoding(what: str):
    """Report a document of the wrong shape as a ValueError."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"malformed {what}: missing field {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from None


def _entries_to_json(table, field: str, encode) -> list:
    """Entry list of a keyed table, ``field`` holding each encoded value;
    plain tables omit ``seq``."""
    if table.keying == "plain":
        return [{"atom": atom, field: encode(value)}
                for atom, value in sorted(table.entries.items())]
    return [{"seq": seq, "atom": atom, field: encode(value)}
            for (seq, atom), value in sorted(table.entries.items())]


def _typed(value, kind: type, rule: str):
    """``value`` if its type is ``kind``, else a ValueError stating ``rule``
    and quoting the value, abridged if long."""
    if type(value) is not kind:
        raise ValueError(f"{rule}, got {_brief(value)}")
    return value


def _text(value, noun: str) -> str:
    """``value`` if it is a string, else a ValueError naming the field."""
    return _typed(value, str, f"{noun} must be strings")


def _formula_reader(noun: str):
    """A parser for one document's ``noun`` fields, which must be strings;
    they share one intern table, so a text that recurs is parsed once."""
    nodes: dict = {}
    return lambda value: _parse_from(_text(value, noun), 0, nodes)


def _entries_from_json(entries, keying: str, field: str, decode) -> dict:
    """Inverse of :func:`_entries_to_json`; a missing ``seq`` is ε.  Entries
    repeating a key must agree, as ``seq.keyed_table`` asks of merged keys."""
    table: dict = {}
    for e in _typed(entries, list, "entries must be a list"):
        atom = _typed(e, dict, "entries must be objects")["atom"]
        if type(atom) is not int or atom < 1:
            raise ValueError(f"atoms must be integers >= 1, got {atom!r}")
        key = atom if keying == "plain" else (_text(e.get("seq", ""), "sequences"), atom)
        value = decode(e[field])
        if table.setdefault(key, value) != value:
            raise ValueError(f"conflicting {field}s at {key}")
    return table


def substitution_from_json(data) -> LericoneSubstitution:
    if isinstance(data, list):  # bare entry list: raw keying
        data = {"keying": "raw", "entries": data}
    _typed(data, dict, "substitution tables must be objects or lists")
    with _decoding("substitution table"):
        keying = data.get("keying", "raw")
        table = _entries_from_json(data["entries"], keying, "image",
                                   _formula_reader("images"))
        return LericoneSubstitution(table, keying=keying)


def assignment_to_json(f: Assignment) -> dict:
    return {"default": f.default, "faithful": f.keying == "faithful",
            "keying": f.keying, "entries": _entries_to_json(f, "value", int)}


def _bit(x) -> int:
    if type(x) is not int or x not in (0, 1):
        raise ValueError(f"assignment bits must be 0 or 1, got {x!r}")
    return x


def assignment_from_json(data) -> Assignment:
    _typed(data, dict, "assignments must be objects")
    with _decoding("assignment"):
        keying = data.get("keying", "faithful" if data.get("faithful") else "raw")
        table = _entries_from_json(data["entries"], keying, "value", _bit)
        return Assignment(table, default=_bit(data.get("default", 0)), keying=keying)


def verdict_to_json(v: Verdict) -> dict:
    out = {"status": v.status, "method": v.method}
    if v.countermodel is not None:
        out["countermodel"] = assignment_to_json(v.countermodel)
    return out


def witness_to_json(w: SharingWitness) -> dict:
    return {"atom": w.atom, "seq": w.sequence,
            "antecedent_path": list(w.antecedent_path),
            "consequent_path": list(w.consequent_path), "mode": w.mode}


def renaming_to_json(table: RenamingTable) -> dict:
    return {"mode": table.mode,
            "entries": [{"seq": seq, "atom": atom, "fresh": fresh}
                        for (seq, atom), fresh in sorted(table.forward.items())]}


def _by_identity(fn):
    """``fn`` of one argument with a memo keyed by object identity, for one
    document whose objects all stay alive while it is encoded."""
    memo: dict = {}

    def memoised(x):
        if id(x) not in memo:
            memo[id(x)] = fn(x)
        return memo[id(x)]
    return memoised


def proof_to_json(pr: HilbertProof) -> dict:
    text = _by_identity(render)
    match = _by_identity(lambda f: match_axiom(f, pr.logic))
    lines = []
    for line in pr.lines:
        if isinstance(line.just, AxiomRef):
            matched = match(line.formula)
            just = {"axiom": line.just.axiom}
            if matched and matched[0] == line.just.axiom:
                just["bind"] = {name: text(g) for name, g in matched[1].items()}
        else:
            just = {"rule": line.just.rule,
                    "from": [i + 1 for i in line.just.premises]}
        lines.append({"formula": text(line.formula), "just": just})
    return {"logic": pr.logic, "lines": lines}


def proof_from_json(data) -> HilbertProof:
    """The proof a document describes; its formulas share one intern table."""
    lines = []
    formula = _formula_reader("formulas")
    with _decoding("proof"):
        for entry in _typed(_typed(data, dict, "proofs must be objects")["lines"],
                            list, "lines must be a list"):
            just = _typed(_typed(entry, dict, "proof lines must be objects")["just"],
                          dict, "justifications must be objects")
            if "axiom" in just:
                if type(just["axiom"]) is not str:
                    raise ValueError(f"axiom ids must be strings: {just['axiom']!r}")
                ref = AxiomRef(just["axiom"])
            else:
                refs = just["from"]
                if type(just["rule"]) is not str:
                    raise ValueError(f"rule ids must be strings: {just['rule']!r}")
                if type(refs) is not list or not all(type(i) is int for i in refs):
                    raise ValueError(f"premise references must be line numbers: "
                                     f"{refs!r}")
                ref = RuleRef(just["rule"], tuple(i - 1 for i in refs))
            lines.append(ProofLine(formula(entry["formula"]), ref))
        return HilbertProof(data["logic"], tuple(lines))


def tableau_proof_to_json(proof: TableauProof) -> dict:
    """Nested rule-application tree; splits carry one subtree per branch."""
    text = _by_identity(render)

    def triple(t: Triple) -> dict:
        return {"seq": t.seq, "sign": t.sign, "formula": text(t.formula)}

    root: list = []
    lists: dict = {0: root}
    for step in proof.steps:
        node = {"triple": triple(step.triple), "rule": step.rule}
        if len(step.results) == 1:
            node["added"] = [triple(t) for t in step.results[0][1]]
            lists[step.branch].append(node)
        else:
            node["branches"] = []
            for ident, group in step.results:
                subtree = {"added": [triple(t) for t in group], "steps": []}
                node["branches"].append(subtree)
                lists[ident] = subtree["steps"]
            lists[step.branch].append(node)
            del lists[step.branch]
    for ident, witness in proof.witnesses:
        closure = {"positive": triple(witness.positive),
                   "negative": triple(witness.negative)}
        if witness.common_key is not None:
            closure["common_key"] = witness.common_key
        lists[ident].append({"closure": closure})
    return {"mode": proof.mode, "tree": root}
