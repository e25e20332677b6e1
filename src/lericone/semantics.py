"""Sequence-sensitive truth assignments and three-way validity checking.

An assignment maps (sequence, atom) keys to bits, total via a default
bit.  Keying mirrors substitutions: ``raw`` tables distinguish every
sequence, ``faithful`` tables are keyed by :func:`lericone.seq.faithful_key`,
and ``plain`` tables ignore the sequence entirely (classical assignments).

Evaluation splits the conditional on whether the current sequence is
empty: at the empty sequence both sides restart at ``c``, elsewhere the
sides prepend ``l`` / ``r``.  Validity of a sequent means no assignment
(no faithful assignment, in faithful mode) makes every premise true and
the conclusion false.

Three deciders are provided: exhaustive enumeration over the sequent's
finite key domain (``brute_consequence``), classical truth tables
(``classical_valid``), and reduction to the classical check through a
skeleton with countermodel pull-back (``decide``).  Brute force and the
classical check run one kernel, ``_first_falsifier``, which evaluates rows
in blocks of 2^16 on packed truth columns and stops at the first block
holding a falsifying row; they differ only in the keys it enumerates.
Both therefore share the enumeration cap, and so does the skeleton
method, which enumerates the skeleton's atoms.  Before it runs blocks,
the kernel walks the keys above the block, 0 before 1, and skips every
subtree in which a strong Kleene (three-valued) evaluation of the partial
assignment already makes the conclusion true or a premise false.  Time
doubles per key only where no partial assignment decides the sequent;
memory does not grow with the key count.  The scalar ``evaluate`` and
the tableau share only the traversal with the kernel, not the Kleene
check, so countermodel checks stay an independent cross-check of the
deciders.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, or_
from typing import Mapping, Optional

from .formula import Formula, Sequent, atoms_of
from .seq import KeyedTable, fold, keying_of, table_key
from .substitution import skeletonize

__all__ = [
    "Assignment", "Verdict", "CapacityError", "evaluate", "domain_keys",
    "relevant_domain", "brute_consequence", "classical_valid", "decide",
    "bullet", "falsifies",
]


_DEFAULT_CAP = 24  # enumeration cap in keys, shared by every enumerating decider


class CapacityError(Exception):
    """Enumeration domain above the cap; brute force and the skeleton
    method share the cap, the tableau has none.  Rows run in fixed-size
    blocks, so the cap bounds time (doubling per key), not memory."""


@dataclass(frozen=True)
class Assignment(KeyedTable):
    """Finite (sequence, atom) -> bit table with a declared default bit."""

    entries: Mapping  # (seq, atom) -> bit; plain keying: atom -> bit
    default: int = 0
    keying: str = "raw"  # "raw" | "faithful" | "plain"

    def __post_init__(self) -> None:
        if self.default not in (0, 1):
            raise ValueError("default must be a bit")
        if any(bit not in (0, 1) for bit in self.entries.values()):
            raise ValueError("assignment values must be bits")
        self._key_entries("bits")

    def _missing(self, _atom: int) -> int:
        """Value of every key the table does not list: the default bit."""
        return self.default


@dataclass(frozen=True)
class Verdict:
    status: str  # "valid" | "invalid"
    countermodel: Optional[Assignment]
    method: str  # "brute" | "skeleton" | "tableau" | "classical"

    @property
    def valid(self) -> bool:
        return self.status == "valid"


def _imp_bit(x: int, y: int) -> int:
    return max(1 - x, y)


def evaluate(f: Assignment, seq: str, a: Formula) -> int:
    """Bit value of ``a`` at sequence ``seq`` under assignment ``f``."""
    return fold(a, seq, f.lookup, (1).__sub__, min, max, _imp_bit)


def domain_keys(a: Formula, seq: str = "") -> set:
    """Every (sequence, atom) key consulted when evaluating ``a`` from ``seq``."""
    return fold(a, seq, lambda x, atom: {(x, atom)}, lambda keys: keys,
                or_, or_, or_)


def relevant_domain(s: Sequent) -> set:
    """Keys consulted when evaluating each premise and the conclusion from the root."""
    keys: set = set()
    for f in s.formulas:
        keys |= domain_keys(f)
    return keys


def falsifies(f: Assignment, s: Sequent) -> bool:
    """True when every premise evaluates to 1 and the conclusion to 0."""
    return (all(evaluate(f, "", p) == 1 for p in s.premises)
            and evaluate(f, "", s.conclusion) == 0)


_BLOCK_WIDTH = 16  # rows per kernel block: 2^16, one 8 KiB integer per column
_CHECK_SPAN = 3  # Kleene-check the children of nodes spanning 2^3+ blocks


def _column_masks(width: int) -> tuple:
    """Truth columns for width keys over all 2^width rows, packed into
    integers: bit r of column i is key i's value in row r, with the first
    key as the most significant bit of the row index."""
    total = 1 << width
    full = column = (1 << total) - 1
    columns = []
    for i in range(1, width + 1):  # halve the period of the previous column
        column ^= column >> (total >> i)
        columns.append(column)
    return columns, full


def _kleene_imp(x: int, y: int) -> int:
    return max(2 - x, y)


def _may_falsify(s: Sequent, leaf) -> bool:
    """Strong Kleene check over values 0, 1 (unknown) and 2 read from
    ``leaf``: False when the conclusion is certainly true or some premise
    certainly false, so that no completion of the partial assignment
    falsifies ``s``."""
    ops = ((2).__sub__, min, max, _kleene_imp)
    return (fold(s.conclusion, "", leaf, *ops) != 2
            and all(fold(p, "", leaf, *ops) for p in s.premises))


def _first_falsifier(s: Sequent, keys: list, column, cap: int) -> Optional[dict]:
    """Lexicographically first falsifying row over the sorted ``keys``, as
    a key -> bit table, or None when no row falsifies ``s``.

    ``column(seq, atom)`` names the key an atom occurrence at ``seq``
    reads.  The first key is the most significant bit of the row index and
    rows run in binary counting order, so the reported row is
    schedule-independent.  Rows run in blocks of 2^``_BLOCK_WIDTH``: the
    last keys take packed truth columns, the keys above them are constant
    in a block, and the search stops at the first falsifying block, so the
    cap bounds time, not memory.

    The keys above the block are walked depth first, 0 before 1.  While a
    node spans at least 2^``_CHECK_SPAN`` blocks, a strong Kleene pass
    (:func:`_may_falsify`, every key below the node read as unknown)
    checks each child, and the walk skips a child that the prefix already
    decides.  Below a node where both children survive the walk checks no
    more and runs every block, so a call makes at most 2 checks per key
    above the block, each about as costly as one block.  Skipped blocks
    hold no falsifier, so the row reported is the one the plain block loop
    finds; time doubles per key only where no partial assignment decides.
    """
    if len(keys) > cap:
        raise CapacityError(
            f"{len(keys)} keys exceed the enumeration cap of {cap}, which "
            "brute force and the skeleton method share; raise --cap or use "
            "the tableau")
    width = len(keys)
    low = min(width, _BLOCK_WIDTH)
    high = width - low
    prefix, depth = 0, 0  # the walk's path: bits of keys[:depth]
    known = dict.fromkeys(keys, 1)  # Kleene value per key: 0, 1 unknown, 2

    def partial(seq: str, atom: int) -> int:
        return known[column(seq, atom)]

    while high - depth >= _CHECK_SPAN:
        key = keys[depth]
        survivors = []
        for bit in (0, 1):
            known[key] = 2 * bit
            if _may_falsify(s, partial):
                survivors.append(bit)
        if not survivors:
            return None
        if len(survivors) == 2:
            break
        prefix, depth = prefix << 1 | survivors[0], depth + 1
        known[key] = 2 * survivors[0]

    columns, full = _column_masks(low)
    table = dict(zip(keys[high:], columns))

    def leaf(seq: str, atom: int) -> int:
        return table[column(seq, atom)]

    ops = (full.__xor__, and_, or_, lambda x, y: (full ^ x) | y)
    rest = high - depth
    for block in range(prefix << rest, (prefix + 1) << rest):
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


def brute_consequence(s: Sequent, mode: str = "plain",
                      cap: int = _DEFAULT_CAP) -> Verdict:
    """Enumerate all assignments over the sequent's key domain.

    Faithful mode quotients the domain by the faithful key, which is
    exactly enumerating all faithful assignments on the relevant keys.
    """
    keying = keying_of(mode)
    column = table_key(keying)
    keys = sorted({column(seq, atom) for seq, atom in relevant_domain(s)})
    row = _first_falsifier(s, keys, column, cap)
    if row is None:
        return Verdict("valid", None, "brute")
    return Verdict("invalid", Assignment(row, default=0, keying=keying), "brute")


def classical_valid(s: Sequent, cap: int = _DEFAULT_CAP) -> Verdict:
    """Classical truth-table check; the countermodel ignores sequences."""
    atoms = sorted(set().union(*map(atoms_of, s.formulas)))
    row = _first_falsifier(s, atoms, table_key("plain"), cap)
    if row is None:
        return Verdict("valid", None, "classical")
    return Verdict("invalid", Assignment(row, default=1, keying="plain"),
                   "classical")


def decide(s: Sequent, mode: str = "plain", *, cap: int = _DEFAULT_CAP) -> Verdict:
    """Skeletonize, decide classically, and pull any countermodel back.

    The skeleton's atoms are in bijection with the sequent's (sequence,
    atom) keys, so the classical verdict transfers; a classical
    countermodel induces a sequence-keyed assignment that is re-checked
    against the original sequent before being returned.
    """
    skeleton, renaming = skeletonize(s, mode=mode)
    classical = classical_valid(skeleton, cap=cap)
    if classical.valid:
        return Verdict("valid", None, "skeleton")
    pulled = Assignment(
        {key: classical.countermodel.lookup("", fresh)
         for key, fresh in renaming.forward.items()},
        default=1, keying=keying_of(mode))
    if not falsifies(pulled, s):
        raise AssertionError(
            "pulled-back countermodel failed to falsify the sequent; "
            "this indicates a defect in the skeleton reduction")
    return Verdict("invalid", pulled, "skeleton")


def bullet(f: Assignment, s, probes=()) -> Assignment:
    """Compose an assignment with a substitution: value at (x, p) is
    ``evaluate(f, x, s(x, p))``.

    The result is exact on the supplied probe keys, on the assignment's
    own keys, and anywhere both tables default; callers supply the keys
    they intend to consult.
    """
    keys = set(probes)
    if f.keying != "plain":
        keys |= set(f.entries)
    entries = {}
    for seq, atom in keys:
        entries[(seq, atom)] = evaluate(f, seq, s.lookup(seq, atom))
    keying = "faithful" if (f.is_faithful and s.is_faithful) else "raw"
    return Assignment(entries, default=f.default, keying=keying)
