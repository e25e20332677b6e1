"""Sequence-indexed substitutions: application, algebra, and skeletons.

A substitution assigns a formula to every (sequence, atom) pair; only
finitely many images differ from the atom itself, and a table of them,
``LericoneSubstitution``, hashes by value.  Three keyings exist:

* ``raw`` - keys looked up verbatim;
* ``plain`` - the image depends on the atom only (the classical case);
* ``faithful`` - keys are normalised by :func:`lericone.seq.faithful_key`,
  so the table cannot distinguish sequences that differ by double-negation
  cancellation (or by the root-conditional collapse such a cancellation
  can expose).  Plain tables are trivially faithful.

``apply_lericone`` accepts anything with a ``lookup(seq, atom)`` method,
which admits the two lazily-evaluated substitutions here: ``star``
(composition, whose support need not be finite when a plain factor is
involved) and ``godel_substitution`` (total injective atom coding).  A
lazy substitution needs only ``lookup`` and ``is_faithful`` (which
``semantics.bullet`` reads); ``is_plain`` belongs to finite tables.

``t_of`` (peel one root conditional) and ``shift`` (graft a c-free
context above the root) stay finite tables; both are identity outside
keys ending in c, where their behaviour is unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .formula import And, Atom, Formula, Imp, Neg, Or, Sequent
from .seq import (KeyedTable, fold, keying_of, reduct, table_key,
                  validate_seq)

__all__ = [
    "LericoneSubstitution", "RenamingTable", "apply_plain", "apply_lericone",
    "star", "t_of", "shift", "godel", "godel_substitution", "inverse_rename",
    "skeletonize", "identity_substitution",
]


@dataclass(frozen=True)
class LericoneSubstitution(KeyedTable):
    """Finite (sequence, atom) -> formula table with identity default."""

    entries: Mapping  # (seq, atom) -> Formula; plain keying: atom -> Formula
    keying: str = "raw"  # "raw" | "faithful" | "plain"

    def __post_init__(self) -> None:
        self._key_entries("images")

    def __hash__(self) -> int:
        # by value, as equality compares; kept from the first use, so a table
        # whose images are too deep to hash still applies
        if "_hash" not in vars(self):
            object.__setattr__(self, "_hash",
                               hash((self.keying, frozenset(self.entries.items()))))
        return self._hash

    @classmethod
    def plain(cls, mapping: Mapping) -> "LericoneSubstitution":
        """Sequence-independent substitution from an atom -> formula map."""
        return cls(dict(mapping), keying="plain")

    @property
    def is_plain(self) -> bool:
        return self.keying == "plain"

    def _missing(self, atom: int) -> Formula:
        """Image of every key the table does not list: the atom itself."""
        return Atom(atom)


def identity_substitution() -> LericoneSubstitution:
    return LericoneSubstitution.plain({})


def apply_plain(table: Mapping, f: Formula) -> Formula:
    """Homomorphic image under an atom -> formula map."""
    def leaf(_seq: str, atom: int) -> Formula:
        return table[atom] if atom in table else Atom(atom)

    return fold(f, "", leaf, Neg, And, Or, Imp)


def apply_lericone(s, seq: str, f: Formula) -> Formula:
    """Image of ``f`` at sequence ``seq``: each atom occurrence is replaced
    by ``s.lookup`` at the occurrence's sequence."""
    return fold(f, seq, s.lookup, Neg, And, Or, Imp)


@dataclass(frozen=True)
class _Composite:
    """Lazy composition: lookup(x, p) = outer(x, inner(x, p))."""

    outer: object
    inner: object

    @property
    def is_faithful(self) -> bool:
        return self.outer.is_faithful and self.inner.is_faithful

    def lookup(self, seq: str, atom: int) -> Formula:
        return apply_lericone(self.outer, seq, self.inner.lookup(seq, atom))


def star(s, t) -> _Composite:
    """Composition satisfying (s * t)(x, A) = s(x, t(x, A)) on all formulas."""
    return _Composite(s, t)


def t_of(s: LericoneSubstitution) -> LericoneSubstitution:
    """Peel one root conditional: value at (x + "c") is s at c_transform(x).

    Identity on keys not ending in c.
    """
    if s.is_plain:
        return s
    table = {}
    for (seq, atom), image in s.entries.items():
        if seq.endswith("c"):
            prefix = seq[:-1]
            table[(prefix + "lc", atom)] = image
            table[(prefix + "rc", atom)] = image
        elif not seq or seq[-1] == "n":
            table[(seq + "c", atom)] = image
        # keys ending in l or r are never a c_transform value: dropped
    return LericoneSubstitution(table, keying=s.keying)


def shift(s: LericoneSubstitution, context: str) -> LericoneSubstitution:
    """Graft a c-free context: value at (x + "c") is s at (x + context + "c").

    Identity on keys not ending in c.
    """
    validate_seq(context)
    if context.endswith("c"):
        raise ValueError(f"shift context must be c-free: {context!r}")
    if s.is_plain:
        return s
    faithful = s.keying == "faithful"
    table = {}
    for (seq, atom), image in s.entries.items():
        if not seq.endswith("c"):
            continue
        # invert x -> x + context (faithful: reduct(x + context)) one
        # appended symbol at a time, right to left
        word = seq[:-1]
        for ch in reversed(context):
            if faithful and ch == "n":
                word = reduct(word + "n")  # appending n is an involution
            elif word.endswith(ch):
                word = word[:-1]
            else:
                break
        else:
            table[(word + "c", atom)] = image
    return LericoneSubstitution(table, keying=s.keying)


# -- atom coding and skeletons ------------------------------------------------

_SYMBOL_CODE = {"l": 1, "r": 2, "c": 3, "n": 4}


_PRIMES = [2, 3]  # every prime found so far, in order; grown by _primes


def _primes(count: int) -> list:
    """The shared prime list, first grown by trial division to at least
    ``count`` primes."""
    candidate = _PRIMES[-1] + 2
    while len(_PRIMES) < count:
        if all(candidate % p for p in _PRIMES):
            _PRIMES.append(candidate)
        candidate += 2
    return _PRIMES


def godel(seq: str, atom: int) -> int:
    """Prime-power coding of a (sequence, atom) key into a fresh atom index.

    The i-th symbol (1-based) contributes the (i+1)-th prime raised to the
    symbol's code (l=1, r=2, c=3, n=4); the atom contributes a factor 2^i.
    Injective, arbitrary precision.
    """
    validate_seq(seq)
    primes = _primes(len(seq) + 1)
    code = 1
    for i, ch in enumerate(seq):
        code *= primes[i + 1] ** _SYMBOL_CODE[ch]
    return (2 ** atom) * code


class _GodelSubstitution:
    """Total atomic injective substitution backed by the prime coding."""

    is_faithful = False

    def lookup(self, seq: str, atom: int) -> Formula:
        return Atom(godel(seq, atom))


def godel_substitution() -> _GodelSubstitution:
    return _GodelSubstitution()


@dataclass(frozen=True)
class RenamingTable:
    """Injective map from (sequence, atom) keys to fresh atom indices."""

    forward: Mapping  # (seq, atom) -> int
    mode: str = "plain"  # "plain" | "faithful": faithful keys are normalised

    def __post_init__(self) -> None:
        keying_of(self.mode)  # rejects an unknown mode
        images = list(self.forward.values())
        if len(images) != len(set(images)):
            raise ValueError("renaming table is not injective")

    def as_substitution(self) -> LericoneSubstitution:
        return LericoneSubstitution(
            {key: Atom(idx) for key, idx in self.forward.items()},
            keying=keying_of(self.mode))


def inverse_rename(table: RenamingTable) -> dict:
    """Plain substitution sending each fresh atom back to its source atom."""
    return {fresh: Atom(atom) for (_, atom), fresh in table.forward.items()}


def skeletonize(s: Sequent, mode: str = "plain",
                use_godel: bool = False) -> tuple:
    """Replace atom occurrences by fresh atoms, injectively per key.

    Keys are (sequence, atom) pairs with the sequence taken from each
    formula's annotation evaluated from the root; faithful mode normalises
    the sequence first.  Fresh indices follow first encounter in
    left-to-right traversal of the premises then the conclusion, or the
    godel coding when ``use_godel`` is set.
    """
    key_for = table_key(keying_of(mode))
    forward: dict = {}

    def fresh_for(seq: str, atom: int) -> Formula:
        key = key_for(seq, atom)
        if key not in forward:
            forward[key] = godel(*key) if use_godel else len(forward) + 1
        return Atom(forward[key])

    premises = tuple(fold(p, "", fresh_for, Neg, And, Or, Imp)
                     for p in s.premises)
    conclusion = fold(s.conclusion, "", fresh_for, Neg, And, Or, Imp)
    return Sequent(premises, conclusion), RenamingTable(forward, mode=mode)
