"""Seeded randomized cross-checks behind the self-test command.

Each check prints one pass/fail line; the battery is a scaled-down
version of the acceptance suite and finishes in a few seconds.
"""

from __future__ import annotations

import json
import random
from itertools import product

from .formula import Imp, Sequent, render
from .generate import (exhaustive_formulas, random_formula, random_proof,
                       random_sequence, random_substitution)
from .hilbert import conclusion, transform_proof
from .relevance import lericone_sharing
from .semantics import (Assignment, brute_consequence, bullet, decide,
                        domain_keys, evaluate)
from .seq import c_transform, reduct
from .substitution import apply_lericone, shift, star, t_of
from .tableau import prove


def _all_deletion_normal_forms(word: str) -> set:
    """Every nn-free word reachable by single deletions, any order."""
    spots = [i for i in range(len(word) - 1) if word[i] == word[i + 1] == "n"]
    if not spots:
        return {word}
    out: set = set()
    for i in spots:
        out |= _all_deletion_normal_forms(word[:i] + word[i + 2:])
    return out


def run_self_test(seed: int = 0, json_output: bool = False) -> bool:
    rng = random.Random(seed)
    results = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        results.append({"check": name, "ok": bool(ok), "detail": detail})

    # cancellation normal form vs exhaustive deletion orders
    ok = True
    for length in range(0, 7):
        for word in map("".join, product("lrn", repeat=length)):
            for candidate in (word, word + "c"):
                forms = _all_deletion_normal_forms(candidate)
                if forms != {reduct(candidate)}:
                    ok = False
    check("reduct-confluence", ok)

    # oracle agreement on random formulas, both modes
    ok = True
    sample = [random_formula(rng, (1, 2, 3), rng.randint(1, 8)) for _ in range(150)]
    for f in sample:
        s = Sequent((), f)
        for mode in ("plain", "faithful"):
            statuses = {prove(s, mode).status,
                        brute_consequence(s, mode).status,
                        decide(s, mode).status}
            if len(statuses) != 1:
                ok = False
                check("oracle-agreement", False, f"{render(f)} [{mode}]")
                break
    if ok:
        check("oracle-agreement", True, f"{len(sample)} random formulas")

    # substitution algebra on random probes
    ok = True
    for _ in range(200):
        sigma = random_substitution(rng, rng.choice(("raw", "faithful", "plain")))
        tau = random_substitution(rng, rng.choice(("raw", "faithful", "plain")))
        seq = random_sequence(rng)
        f = random_formula(rng, (1, 2, 3), rng.randint(0, 5))
        lhs = apply_lericone(star(sigma, tau), seq, f)
        rhs = apply_lericone(sigma, seq, apply_lericone(tau, seq, f))
        if lhs != rhs:
            ok = False
        word = random_sequence(rng, allow_c=False)
        if apply_lericone(t_of(sigma), word + "c", f) != \
                apply_lericone(sigma, c_transform(word), f):
            ok = False
        context = random_sequence(rng, max_len=2, allow_c=False)
        if apply_lericone(shift(sigma, context), word + "c", f) != \
                apply_lericone(sigma, word + context + "c", f):
            ok = False
    check("substitution-algebra", ok, "star, t_of, shift on 200 probes")

    # bullet identity
    ok = True
    for _ in range(100):
        sigma = random_substitution(rng, rng.choice(("raw", "faithful")))
        f = random_formula(rng, (1, 2, 3), rng.randint(0, 5))
        seq = random_sequence(rng)
        entries = {(random_sequence(rng), rng.choice((1, 2, 3))): rng.randint(0, 1)
                   for _ in range(4)}
        base = Assignment(entries, default=rng.randint(0, 1))
        composed = bullet(base, sigma, domain_keys(f, seq))
        if evaluate(composed, seq, f) != evaluate(base, seq,
                                                  apply_lericone(sigma, seq, f)):
            ok = False
    check("bullet-identity", ok, "100 probes")

    # proof transformation round trips
    ok = True
    for logic, keyings in (("BM", ("raw", "faithful", "plain")),
                           ("B", ("faithful", "plain"))):
        for _ in range(40):
            proof = random_proof(rng, logic, steps=6)
            sigma = random_substitution(rng, rng.choice(keyings))
            new = transform_proof(proof, sigma)  # checks its result
            if conclusion(new) != apply_lericone(sigma, "", conclusion(proof)):
                ok = False
    check("proof-transformation", ok, "40 BM + 40 B proofs")

    # sharing witnesses on small valid implications
    ok = True
    for f in exhaustive_formulas(4, (1, 2)):
        if not isinstance(f, Imp):
            continue
        for mode in ("plain", "faithful"):
            if decide(Sequent((), f), mode).valid and \
                    lericone_sharing(f, mode) is None:
                ok = False
    check("sharing-witnesses", ok, "implications with up to 4 connectives")

    passed = all(r["ok"] for r in results)
    if json_output:
        print(json.dumps({"seed": seed, "passed": passed, "checks": results},
                         indent=2))
    else:
        for r in results:
            status = "pass" if r["ok"] else "FAIL"
            detail = f"  ({r['detail']})" if r["detail"] else ""
            print(f"{status}: {r['check']}{detail}")
        print(f"self-test {'passed' if passed else 'FAILED'} (seed {seed})")
    return passed
