"""Path sequences over {l, r, n, c} and their calculus.

A sequence records, innermost symbol first, the chain of negations and
conditional branches above a subformula occurrence: ``n`` for the scope of a
negation, ``l``/``r`` for the antecedent/consequent of a nested conditional,
and a single terminal ``c`` marking immediate scope of a root-level
conditional.  Sequences are plain strings; ``""`` is the empty sequence.

The rule that gives each child its sequence lives here and nowhere else:
``children`` takes one step of it and ``fold`` applies it recursively.
Every traversal that tracks sequences (annotation, evaluation, the
enumeration kernel, substitution, skeletons and the tableau rules) goes
through one of the two.

Occurrence paths are walked here and nowhere else: ``occurrences`` yields
every ``(path, node, sequence)`` of a formula, and ``locate`` descends one
path.  ``lrcn`` and ``annotate`` below, and ``formula``'s
``subformula_at``, ``all_paths``, ``atom_occurrences`` and ``size``, are
expressions over the two.

Besides the annotation map itself the module provides:

* ``c_transform`` - rewrites an outermost ``l``/``r`` step into ``c``,
  which is how a nested conditional's annotation looks once that
  conditional is promoted to the root;
* ``reduct`` / ``equivalent`` - the normal form and equivalence under
  cancellation of adjacent double negations;
* ``faithful_key`` - the coarser normal form used to key every
  faithful-mode table: reduct followed by ``c_transform``.  Two sequences
  share a key exactly when no faithful substitution or assignment can
  tell them apart when evaluating from the root (cancelling an ``nn``
  pair can expose an ``l``/``r`` as the outermost step, where evaluation
  restarting at the empty sequence would have placed a ``c``);
* ``keying_of`` / ``table_key`` - a mode's table keying and a keying's
  key; ``keyed_table`` / ``KeyedTable`` - the normalisation and lookup
  shared by assignment and substitution tables;
* ``polarity`` - the sign of a c-free sequence.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .formula import Atom, Formula, Imp, Neg, OccurrencePath, Or, PathError

__all__ = [
    "SYMBOLS", "validate_seq", "children", "fold", "occurrences", "locate",
    "lrcn", "annotate",
    "c_transform", "reduct", "equivalent", "faithful_key", "keying_of",
    "table_key", "keyed_table", "KeyedTable", "polarity",
]

SYMBOLS = "lrnc"


def validate_seq(seq: str) -> str:
    """Check the alphabet and that c appears at most once, terminally."""
    for ch in seq:
        if ch not in SYMBOLS:
            raise ValueError(f"bad symbol {ch!r} in sequence {seq!r}")
    if "c" in seq[:-1]:
        raise ValueError(f"c must be the final symbol: {seq!r}")
    return seq


def children(node: Formula, seq: str) -> tuple:
    """One step of the rule: ``(selector, child, sequence)`` per child of
    ``node`` at sequence ``seq``, left to right; atoms have none.

    Negation prepends ``n``, a conditional at the empty sequence sends both
    children to ``c`` and at any other sequence prepends ``l`` or ``r``,
    conjunction and disjunction pass the sequence through.
    """
    kind = type(node)
    if kind is Atom:
        return ()
    if kind is Neg:
        return (("only", node.child, "n" + seq),)
    if kind is Imp:
        if seq:
            return (("left", node.left, "l" + seq), ("right", node.right, "r" + seq))
        return (("left", node.left, "c"), ("right", node.right, "c"))
    return (("left", node.left, seq), ("right", node.right, seq))


def fold(a: Formula, seq: str, leaf, neg, conj, disj, imp):
    """Combine ``a`` bottom-up at sequence ``seq`` by the rule of
    :func:`children`: ``leaf(seq, atom)`` at each atom occurrence, left to
    right, and ``neg(x)``, ``conj(x, y)``, ``disj(x, y)``, ``imp(x, y)`` on
    the values of a node's children.

    Builtins and constructors make cheap operators: ``min``/``max`` over
    bits, ``operator.and_``/``operator.or_`` over packed columns, and
    ``Neg``/``And``/``Or``/``Imp`` to rebuild a formula.
    """
    kind = type(a)
    if kind is Atom:
        return leaf(seq, a.index)
    if kind is Neg:
        return neg(fold(a.child, "n" + seq, leaf, neg, conj, disj, imp))
    if kind is Imp:
        if seq:
            return imp(fold(a.left, "l" + seq, leaf, neg, conj, disj, imp),
                       fold(a.right, "r" + seq, leaf, neg, conj, disj, imp))
        return imp(fold(a.left, "c", leaf, neg, conj, disj, imp),
                   fold(a.right, "c", leaf, neg, conj, disj, imp))
    op = disj if kind is Or else conj
    return op(fold(a.left, seq, leaf, neg, conj, disj, imp),
              fold(a.right, seq, leaf, neg, conj, disj, imp))


def occurrences(root: Formula) -> Iterator[tuple]:
    """Every occurrence in ``root`` as ``(path, node, sequence)``, in
    preorder, left to right, which is ``sorted`` order of the paths.

    An explicit stack, so any depth is walked without recursion.
    """
    stack = [((), root, "")]
    while stack:
        path, node, seq = stack.pop()
        yield path, node, seq
        for selector, child, child_seq in reversed(children(node, seq)):
            stack.append((path + (selector,), child, child_seq))


def locate(root: Formula, path: OccurrencePath) -> tuple:
    """``(node, sequence)`` of the occurrence addressed by ``path`` in
    ``root``; a selector that does not fit raises ``PathError``."""
    node, seq = root, ""
    for depth, selector in enumerate(path):
        for step, child, child_seq in children(node, seq):
            if step == selector:
                node, seq = child, child_seq
                break
        else:
            raise PathError(f"selector {selector!r} at depth {depth} does not "
                            f"fit a {type(node).__name__} node", selector, depth)
    return node, seq


def lrcn(root: Formula, path: OccurrencePath) -> str:
    """Sequence of the occurrence addressed by ``path`` in ``root``."""
    return locate(root, path)[1]


def annotate(root: Formula) -> dict:
    """Total map from every path of ``root`` to its sequence."""
    return {path: seq for path, _, seq in occurrences(root)}


def c_transform(seq: str) -> str:
    """Replace a final l or r with c; other sequences pass through.

    Only defined on c-free input.
    """
    if seq.endswith("c"):
        raise ValueError(f"c_transform is defined on c-free sequences: {seq!r}")
    if seq and seq[-1] in "lr":
        return seq[:-1] + "c"
    return seq


def reduct(seq: str) -> str:
    """The unique nn-free word reached by cancelling adjacent n pairs.

    Only ``n`` cancels, so each maximal run of ``n`` keeps its parity and
    no two runs ever merge: one left-to-right pass of ``replace`` reaches
    the normal form.
    """
    return seq.replace("nn", "")


def equivalent(x: str, y: str) -> bool:
    """True when the two sequences have the same reduct."""
    return reduct(x) == reduct(y)


def faithful_key(seq: str) -> str:
    """Canonical key for faithful-mode tables: reduct, then c_transform.

    Keys ending in c keep their reduct prefix; c-free keys whose reduct
    ends in l or r collapse onto the corresponding c key (evaluation can
    only reach such a sequence through a cancelled double negation over a
    root conditional, where the c key is consulted instead).
    """
    red = reduct(seq)
    return red[:-1] + "c" if red[-1:] in ("l", "r") else red


_MODE_KEYING = {"plain": "raw", "faithful": "faithful"}


def keying_of(mode: str) -> str:
    """Keying of a decision mode's tables: ``raw`` for ``plain`` mode, which
    keeps every sequence apart, ``faithful`` for ``faithful`` mode; any
    other mode raises ``ValueError``."""
    try:
        return _MODE_KEYING[mode]
    except (KeyError, TypeError):
        raise ValueError(f"unknown mode {mode!r}") from None


def _raw_key(seq: str, atom: int) -> tuple:
    return seq, atom


def _faithful_table_key(seq: str, atom: int) -> tuple:
    return faithful_key(seq), atom


def _atom_key(_seq: str, atom: int) -> int:
    return atom


_TABLE_KEYS = {"raw": _raw_key, "faithful": _faithful_table_key,
               "plain": _atom_key}


def table_key(keying: str):
    """The function ``(seq, atom) -> key`` naming the entry an atom
    occurrence at ``seq`` reads in a table of this keying: ``(seq, atom)``
    for ``raw``, ``(faithful_key(seq), atom)`` for ``faithful``, and the
    atom alone for the sequence-blind (classical) ``plain`` keying."""
    try:
        return _TABLE_KEYS[keying]
    except (KeyError, TypeError):
        raise ValueError(f"unknown keying {keying!r}") from None


def keyed_table(entries: Mapping, keying: str, noun: str) -> dict:
    """Normalised copy of a (sequence, atom)-keyed table.

    ``raw`` keeps every key, ``faithful`` merges keys with the same
    :func:`faithful_key`, and ``plain`` tables are keyed by atom alone.
    Sequences are validated; two entries merged onto one key must agree,
    else the error names the conflicting ``noun``.
    """
    key_for = table_key(keying)
    if keying == "plain":
        return dict(entries)
    table: dict = {}
    for (seq, atom), value in entries.items():
        validate_seq(seq)
        key = key_for(seq, atom)
        if table.get(key, value) != value:
            raise ValueError(f"conflicting {noun} on equivalent keys at {key}: "
                             "table is not faithful")
        table[key] = value
    return table


class KeyedTable:
    """Lookup shared by assignments and substitutions.

    A subclass has ``entries`` and ``keying`` fields, calls
    :meth:`_key_entries` once built, and gives an absent key's value as
    ``_missing(atom)``.  The table is immutable, so ``lookup`` normalises
    each distinct (sequence, atom) once and remembers the value.
    """

    def _key_entries(self, noun: str) -> None:
        object.__setattr__(self, "entries",
                           keyed_table(self.entries, self.keying, noun))
        object.__setattr__(self, "_key", table_key(self.keying))
        object.__setattr__(self, "_values", {})  # (seq, atom) -> value

    @property
    def is_faithful(self) -> bool:
        return self.keying in ("faithful", "plain")

    def lookup(self, seq: str, atom: int):
        value = self._values.get((seq, atom))
        if value is None:
            key = self._key(seq, atom)
            value = self._values[seq, atom] = (
                self.entries[key] if key in self.entries else self._missing(atom))
        return value


def polarity(seq: str) -> str:
    """``"positive"`` or ``"negative"``; n and l flip, r preserves.

    Flips commute, so the sign is the parity of the n and l count.  Only
    defined on c-free input.
    """
    if seq.endswith("c"):
        raise ValueError(f"polarity is defined on c-free sequences: {seq!r}")
    return "positive" if (seq.count("n") + seq.count("l")) % 2 == 0 else "negative"
