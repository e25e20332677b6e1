"""Variable-sharing checks and the polarity countermodel constructor.

An implication can share an atom between antecedent and consequent in
three increasingly demanding senses: anywhere (classical sharing), under
the same sequence, or under sequences with the same reduct (faithful
sharing).  When even the demanded sharing fails, a falsifying assignment
exists and is constructed here: atoms reached through a positively
signed sequence get 1 on the antecedent side and 0 on the consequent
side, negatively signed ones the mirror image, everything else 1.  The
two sides then evaluate to 1 and 0 at c, so the implication gets 0 at
the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formula import Formula, Imp, Sequent, atom_occurrences, atoms_of, render
from .semantics import Assignment, evaluate
from .seq import keying_of, lrcn, polarity, table_key
from .substitution import skeletonize

__all__ = [
    "SharingWitness", "shares_atom", "lericone_sharing", "make_h",
    "certify_irrelevance",
]


@dataclass(frozen=True)
class SharingWitness:
    atom: int
    antecedent_path: tuple  # path inside the implication, starts with "left"
    consequent_path: tuple  # starts with "right"
    sequence: str  # common sequence; faithful mode: the common reduct
    mode: str = "plain"


def shares_atom(a: Formula, b: Formula) -> Optional[int]:
    """Least atom index occurring in both, or None."""
    common = atoms_of(a) & atoms_of(b)
    return min(common) if common else None


def lericone_sharing(imp: Formula, mode: str = "plain") -> Optional[SharingWitness]:
    """First atom occurring on both sides of the implication under equal
    (plain) or reduct-equivalent (faithful) sequences, in traversal order."""
    if not isinstance(imp, Imp):
        raise ValueError(f"expected an implication, got {render(imp)}")
    # occurrence sequences inside an implication end in c, where the
    # faithful key is the reduct
    key_for = table_key(keying_of(mode))
    consequent_index: dict = {}
    for path, atom in atom_occurrences(imp.right):
        full = ("right",) + path
        key = key_for(lrcn(imp, full), atom)
        consequent_index.setdefault(key, full)
    for path, atom in atom_occurrences(imp.left):
        full = ("left",) + path
        key = key_for(lrcn(imp, full), atom)
        if key in consequent_index:
            return SharingWitness(atom, full, consequent_index[key], key[0], mode)
    return None


def make_h(a: Formula, b: Formula, mode: str = "plain") -> Assignment:
    """Polarity assignment falsifying ``a -> b`` for atom-disjoint sides.

    Keys are the occurrence sequences inside ``a -> b``; atoms of ``a``
    get 1 under positive sequences and 0 under negative ones, atoms of
    ``b`` the mirror, default 1.  Faithful mode normalises the keys,
    which is sound because reduct-equivalent sequences have equal
    polarity.
    """
    keying = keying_of(mode)
    shared = shares_atom(a, b)
    if shared is not None:
        raise ValueError(f"sides share atom p{shared}; no falsifier of this "
                         "shape exists")
    imp = Imp(a, b)
    entries: dict = {}
    for side, prefix in ((a, "left"), (b, "right")):
        for path, atom in atom_occurrences(side):
            seq = lrcn(imp, (prefix,) + path)
            # occurrence sequences inside an implication always end in c;
            # polarity is read off the c-free prefix
            sign = polarity(seq[:-1])
            if side is a:
                bit = 1 if sign == "positive" else 0
            else:
                bit = 0 if sign == "positive" else 1
            entries[(seq, atom)] = bit
    return Assignment(entries, default=1, keying=keying)


def certify_irrelevance(imp: Formula, mode: str = "plain") -> Optional[Assignment]:
    """Falsifying assignment for an implication without a sharing witness.

    Skeletonizes so the two sides become atom-disjoint, builds the
    polarity assignment on the skeleton, pulls it back through the
    renaming, and verifies the result evaluates the implication to 0.
    Returns None when a sharing witness exists.
    """
    if not isinstance(imp, Imp):
        raise ValueError(f"expected an implication, got {render(imp)}")
    if lericone_sharing(imp, mode) is not None:
        return None
    skeleton_sequent, renaming = skeletonize(Sequent((), imp), mode=mode)
    skeleton = skeleton_sequent.conclusion
    h = make_h(skeleton.left, skeleton.right, mode)
    entries = {}
    for (seq, atom), fresh in renaming.forward.items():
        entries[(seq, atom)] = h.lookup(seq, fresh)
    pulled = Assignment(entries, default=1, keying=h.keying)
    value = evaluate(pulled, "", imp)
    if value != 0:
        raise AssertionError("polarity assignment failed to falsify the "
                             "implication; this indicates a defect in the "
                             "construction")
    return pulled
