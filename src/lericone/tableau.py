"""Analytic tableaux for sequence-sensitive consequence, plain and faithful.

A tableau works on signed triples (sequence, sign, formula).  The ten
expansion rules mirror the evaluation clauses: lattice connectives keep
the sequence, negation prepends n, and the conditional restarts at c
from the empty sequence or prepends l / r elsewhere.  Every rule output
is a strictly smaller formula, so saturation terminates.

Closure in plain mode needs two triples with the same sequence, opposite
signs, and the same formula on one branch.  Faithful mode closes when the
sequences agree up to the faithful key; the recorded witness keeps both
raw sequences and their common key, from which the individual
double-negation cancellation steps can be reconstructed.

Expansion is deterministic (oldest unprocessed triple on the leftmost
open branch), so :func:`replay` checks a proof object by re-running
:func:`prove` and comparing the two.  :func:`prove` stops at
the verdict: a closed tableau is expanded in full, while on an open one
expansion ends once the leftmost open branch is saturated, which alone
determines the countermodel.  :func:`saturate` expands every branch.
"""

from __future__ import annotations

from typing import Optional

from .formula import And, Atom, Formula, Imp, Neg, Or, Record, Sequent
from .semantics import Assignment, Verdict, falsifies
from .seq import children, keying_of, table_key

__all__ = [
    "Triple", "Branch", "Tableau", "ClosureWitness", "RuleApplication",
    "TableauProof", "TableauResult", "initial_tableau", "saturate",
    "prove", "extract_countermodel", "extensions_of", "replay",
]


_FAITHFUL_KEY = table_key("faithful")


class Triple(Record):
    __slots__ = _fields = ("seq", "sign", "formula")

    def __init__(self, seq: str, sign: int, formula: Formula) -> None:
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "formula", formula)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.seq, self.sign, self.formula)
                    == (other.seq, other.sign, other.formula))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.seq, self.sign, self.formula))


class ClosureWitness(Record):
    __slots__ = _fields = ("positive", "negative", "common_key")
    common_key: Optional[str]  # faithful mode: shared faithful key

    def __init__(self, positive: Triple, negative: Triple,
                 common_key: Optional[str] = None) -> None:
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "negative", negative)
        object.__setattr__(self, "common_key", common_key)


class _State(Record):
    """A record that expansion updates in place: mutable and unhashable,
    compared by value like every record."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class Branch(_State):
    """One branch: ordered triples, expansion bookkeeping, closure state."""

    __slots__ = _fields = ("ident", "triples", "members", "processed", "closed", "_by_key")

    def __init__(self, ident: int, triples: Optional[list] = None,
                 members: Optional[set] = None, processed: int = 0,
                 closed: Optional[ClosureWitness] = None,
                 _by_key: Optional[dict] = None) -> None:
        self.ident = ident
        self.triples = [] if triples is None else triples
        self.members = set() if members is None else members
        self.processed = processed  # triples below this index have been expanded
        self.closed = closed
        # ((key_seq, formula), sign) -> Triple
        self._by_key = {} if _by_key is None else _by_key

    def clone(self, new_ident: int) -> "Branch":
        child = Branch(new_ident, list(self.triples), set(self.members),
                       self.processed, self.closed, dict(self._by_key))
        return child

    def add(self, triple: Triple, key_of) -> None:
        """Insert with per-branch dedup and an eager closure check on
        ``key_of``, the tableau's :attr:`Tableau.key_of`."""
        if triple in self.members or self.closed is not None:
            return
        self.triples.append(triple)
        self.members.add(triple)
        key = key_of(triple.seq, triple.formula)
        self._by_key[key, triple.sign] = triple
        opposite = self._by_key.get((key, 1 - triple.sign))
        if opposite is not None:
            pos, neg = ((triple, opposite) if triple.sign == 1 else (opposite, triple))
            common = key[0] if key_of is _FAITHFUL_KEY else None
            self.closed = ClosureWitness(pos, neg, common)

    def next_unprocessed(self) -> Optional[Triple]:
        while self.processed < len(self.triples):
            triple = self.triples[self.processed]
            if not isinstance(triple.formula, Atom):
                return triple
            self.processed += 1
        return None

    @property
    def is_open(self) -> bool:
        return self.closed is None


class Tableau(_State):
    __slots__ = ("sequent", "mode", "branches", "next_ident", "steps", "key_of")
    _fields = __slots__[:-1]

    def __init__(self, sequent: Sequent, mode: str, branches: list,
                 next_ident: int = 0, steps: Optional[list] = None) -> None:
        self.sequent = sequent
        self.mode = mode
        self.branches = branches
        self.next_ident = next_ident
        self.steps = [] if steps is None else steps
        self.key_of = table_key(keying_of(mode))  # the mode's closure key


class RuleApplication(Record):
    __slots__ = _fields = ("branch", "triple", "rule", "results")
    results: tuple  # (branch id, added triples) per resulting branch

    def __init__(self, branch: int, triple: Triple, rule: str, results: tuple) -> None:
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "triple", triple)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "results", results)


class TableauProof(Record):
    __slots__ = _fields = ("sequent", "mode", "steps", "witnesses")
    witnesses: tuple  # (branch id, ClosureWitness) in closing order

    def __init__(self, sequent: Sequent, mode: str, steps: tuple, witnesses: tuple) -> None:
        object.__setattr__(self, "sequent", sequent)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "witnesses", witnesses)


class TableauResult(Record):
    __slots__ = _fields = ("status", "proof", "countermodel", "tableau")
    status: str  # "valid" | "invalid"

    def __init__(self, status: str, proof: Optional[TableauProof],
                 countermodel: Optional[Assignment], tableau: Tableau) -> None:
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "proof", proof)
        object.__setattr__(self, "countermodel", countermodel)
        object.__setattr__(self, "tableau", tableau)

    def verdict(self) -> Verdict:
        return Verdict(self.status, self.countermodel, "tableau")


# (connective, sign, at ε) -> (rule name, whether it splits the branch,
# sign of each child); "at ε" only matters for the conditional.
_RULES = {
    (And, 1, False): ("Positive Conjunction Rule", False, (1, 1)),
    (And, 0, False): ("Negative Conjunction Rule", True, (0, 0)),
    (Or, 1, False): ("Positive Disjunction Rule", True, (1, 1)),
    (Or, 0, False): ("Negative Disjunction Rule", False, (0, 0)),
    (Neg, 1, False): ("Positive Negation Rule", False, (0,)),
    (Neg, 0, False): ("Negative Negation Rule", False, (1,)),
    (Imp, 1, True): ("Positive Conditional Rule, ε case", True, (0, 1)),
    (Imp, 0, True): ("Negative Conditional Rule, ε case", False, (1, 0)),
    (Imp, 1, False): ("Positive Conditional Rule, non-ε case", True, (0, 1)),
    (Imp, 0, False): ("Negative Conditional Rule, non-ε case", False, (1, 0)),
}


def extensions_of(triple: Triple) -> Optional[tuple]:
    """Rule name plus the triples each resulting branch receives.

    One inner tuple per branch: a single inner tuple extends the branch in
    place, two of them split it.  Atoms have no extensions.  The children
    carry the sequences :func:`lericone.seq.children` gives them.
    """
    f = triple.formula
    kind = type(f)
    if kind is Atom:
        return None
    seq = triple.seq
    rule, split, signs = _RULES[kind, triple.sign, kind is Imp and not seq]
    steps = children(f, seq)
    first = Triple(steps[0][2], signs[0], steps[0][1])
    if len(steps) == 1:
        return rule, ((first,),)
    second = Triple(steps[1][2], signs[1], steps[1][1])
    if split:
        return rule, ((first,), (second,))
    return rule, ((first, second),)


def initial_tableau(s: Sequent, mode: str = "plain") -> Tableau:
    """Single branch: every premise signed 1, the conclusion signed 0."""
    tableau = Tableau(s, mode, [], 1)
    branch = Branch(0)
    for premise in s.premises:
        branch.add(Triple("", 1, premise), tableau.key_of)
    branch.add(Triple("", 0, s.conclusion), tableau.key_of)
    tableau.branches = [branch]
    return tableau


def _apply(tableau: Tableau, position: int, triple: Triple) -> None:
    """Apply the rule for ``triple`` to the branch at ``position``: extend
    it in place by one group, or replace it by one clone per group; the
    step is recorded."""
    branch = tableau.branches[position]
    rule, groups = extensions_of(triple)
    branch.processed += 1
    if len(groups) == 1:
        children = [branch]
    else:
        children = [branch.clone(tableau.next_ident + i) for i in range(len(groups))]
        tableau.next_ident += len(groups)
    for child, group in zip(children, groups):
        for new in group:
            child.add(new, tableau.key_of)
    tableau.branches[position:position + 1] = children
    tableau.steps.append(RuleApplication(
        branch.ident, triple, rule,
        tuple((c.ident, g) for c, g in zip(children, groups))))


def _expand(tableau: Tableau, position: int) -> Optional[int]:
    """Expand the oldest unprocessed triple on the leftmost open branch at
    or right of ``position`` until that branch is saturated; return its
    position, or None once no open branch is left.  A rule changes only the
    branch it is applied to, so branches left of ``position`` stay done."""
    while position < len(tableau.branches):
        branch = tableau.branches[position]
        if not branch.is_open:
            position += 1
        elif (triple := branch.next_unprocessed()) is None:
            return position
        else:
            _apply(tableau, position, triple)
    return None


def saturate(tableau: Tableau) -> Tableau:
    position = _expand(tableau, 0)
    while position is not None:
        position = _expand(tableau, position + 1)
    return tableau


def extract_countermodel(branch: Branch, mode: str, s: Sequent) -> Assignment:
    """Read an assignment off a saturated open branch: positive atomic
    triples are 1, everything else defaults to 0.  The result is verified
    against the sequent before being returned."""
    if not branch.is_open:
        raise ValueError("branch is closed")
    if branch.next_unprocessed() is not None:
        raise ValueError("branch is not saturated")
    entries = {(t.seq, t.formula.index): 1
               for t in branch.triples
               if t.sign == 1 and isinstance(t.formula, Atom)}
    model = Assignment(entries, default=0, keying=keying_of(mode))
    if not falsifies(model, s):
        raise AssertionError(
            "open-branch assignment failed to falsify the sequent; "
            "this indicates a defect in the rule table")
    return model


def prove(s: Sequent, mode: str = "plain") -> TableauResult:
    """Expand the tableau for the sequent until the verdict and report it.

    Closed tableau: every branch is expanded, and the proof object records
    every rule application and one closure witness per branch.  Open
    tableau: expansion stops as soon as the leftmost open branch is
    saturated, and the countermodel is read off that branch; branches to
    its right may be left unexpanded.  :func:`saturate` expands everything.
    """
    tableau = initial_tableau(s, mode)
    position = _expand(tableau, 0)
    if position is not None:
        model = extract_countermodel(tableau.branches[position], mode, s)
        return TableauResult("invalid", None, model, tableau)
    witnesses = tuple((b.ident, b.closed) for b in tableau.branches)
    proof = TableauProof(s, mode, tuple(tableau.steps), witnesses)
    return TableauResult("valid", proof, None, tableau)


def replay(proof: TableauProof) -> bool:
    """Re-run :func:`prove` on the proof's sequent and mode and confirm that
    it records the same rule applications and closes every branch with the
    recorded witness.  ``prove`` is deterministic, so this accepts exactly
    the proofs that a step-by-step re-run of the rules accepts."""
    rerun = prove(proof.sequent, proof.mode).proof
    if rerun is None or rerun.steps != proof.steps:
        return False
    recorded = dict(proof.witnesses)
    return all(recorded.get(ident) == witness for ident, witness in rerun.witnesses)
