"""Command-line front end.

Commands: annotate, prove, substitute, skeleton, share, check-proof,
transform-proof, self-test.  Sequents on the command line separate
premises with commas and use ``|-`` before the conclusion, e.g.
``"p1, p1->p2 |- p2"``.

Commands annotate to check-proof compute an exit code, a JSON payload
and text lines, and hand them to one emitter: it prints the payload
under ``--json``, else the text.  Errors raise; :func:`main` prints them.

Exit codes: 0 for valid / witness found / checks passed, 1 for invalid /
no witness / proof rejected, 2 for errors (including any internal
disagreement between methods under ``--method all``).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .formula import (Imp, ParseError, parse, parse_sequent, render,
                      render_sequent)
from .hilbert import ProofCheckError, check_proof, transform_proof
from .relevance import certify_irrelevance, lericone_sharing
from .semantics import CapacityError, brute_consequence, decide
from .seq import occurrences
from .substitution import apply_lericone, godel_substitution, skeletonize
from .tableau import prove as tableau_prove

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_ERROR = 2
_EPSILON = "ε"  # label of the empty sequence


def _print_json(data) -> None:
    # A tableau proof is encoded only here: text output never builds its tree.
    print(json.dumps(data, indent=2, sort_keys=True,
                     default=jsonio.tableau_proof_to_json))


def _emit(args, code: int, payload: dict, lines: list) -> int:
    """Print ``payload`` under ``--json``, else ``lines``; return ``code``."""
    if args.json:
        _print_json(payload)
    else:
        for line in lines:
            print(line)
    return code


def _compact(assignment) -> str:
    return json.dumps(jsonio.assignment_to_json(assignment))


def cmd_annotate(args) -> int:
    f = parse(args.formula)
    rows = [{"path": list(path), "seq": seq, "subformula": render(node)}
            for path, node, seq in occurrences(f)]  # preorder
    return _emit(args, EXIT_VALID, {"formula": render(f), "annotation": rows},
                 [f"{'  ' * len(row['path'])}{row['subformula']}   "
                  f"[{row['seq'] or _EPSILON}]" for row in rows])


def _run_method(sequent, mode, method, cap):
    if method == "brute":
        return brute_consequence(sequent, mode, cap=cap)
    if method == "skeleton":
        return decide(sequent, mode, cap=cap)
    raise ValueError(f"unknown method {method!r}")


def cmd_prove(args) -> int:
    if args.cap < 0:
        raise ValueError(f"--cap must be non-negative, got {args.cap}")
    sequent = parse_sequent(args.sequent)
    methods = ["tableau", "brute", "skeleton"] if args.method == "all" else [args.method]
    verdicts = {}
    notes = []
    tableau_result = None
    for method in methods:
        try:
            if method == "tableau":
                tableau_result = tableau_prove(sequent, args.mode)
                verdicts[method] = tableau_result.verdict()
            else:
                verdicts[method] = _run_method(sequent, args.mode, method, args.cap)
        except CapacityError as exc:
            if args.method != "all":
                raise
            notes.append(f"{method} skipped: {exc}")
    statuses = {v.status for v in verdicts.values()}
    if len(statuses) > 1:
        dump = {"sequent": render_sequent(sequent), "mode": args.mode,
                "disagreement": {m: jsonio.verdict_to_json(v)
                                 for m, v in verdicts.items()}}
        print(json.dumps(dump, indent=2), file=sys.stderr)
        raise ValueError("methods disagree; see diagnostic dump")
    primary = verdicts[methods[0]]
    shown = render_sequent(sequent)
    payload = {**jsonio.verdict_to_json(primary), "sequent": shown,
               "mode": args.mode, "methods": sorted(verdicts)}
    lines = [f"{shown}  [{args.mode}]: {primary.status}"]
    if notes:
        payload["notes"] = notes
        lines += [f"  note: {note}" for note in notes]
    if tableau_result is not None and tableau_result.proof is not None:
        payload["proof"] = tableau_result.proof
    if primary.countermodel is not None:
        lines.append("  countermodel: " + _compact(primary.countermodel))
    return _emit(args, EXIT_VALID if primary.valid else EXIT_INVALID, payload, lines)


def cmd_substitute(args) -> int:
    f = parse(args.formula)
    if args.godel:
        sub = godel_substitution()
    elif args.table:
        with open(args.table) as handle:
            sub = jsonio.substitution_from_json(json.load(handle))
    else:
        raise ValueError("supply --godel or --table FILE")
    image = render(apply_lericone(sub, "", f))
    return _emit(args, EXIT_VALID, {"input": render(f), "image": image}, [image])


def cmd_skeleton(args) -> int:
    sequent = parse_sequent(args.sequent)
    skeleton, renaming = skeletonize(sequent, mode=args.mode, use_godel=args.godel)
    lines = [render_sequent(skeleton)]
    lines += [f"  p{fresh} <- (p{atom} at {seq or _EPSILON})"
              for (seq, atom), fresh in sorted(renaming.forward.items())]
    return _emit(args, EXIT_VALID, {"skeleton": lines[0],
                                    "renaming": jsonio.renaming_to_json(renaming)},
                 lines)


def cmd_share(args) -> int:
    f = parse(args.formula)
    if not isinstance(f, Imp):
        raise ValueError("share expects an implication")
    witness = lericone_sharing(f, args.mode)
    if witness is not None:
        return _emit(args, EXIT_VALID, {"witness": jsonio.witness_to_json(witness)},
                     [f"shared: p{witness.atom} at {witness.sequence} "
                      f"(mode {args.mode})"])
    certificate = certify_irrelevance(f, args.mode)
    return _emit(args, EXIT_INVALID,
                 {"witness": None,
                  "certificate": jsonio.assignment_to_json(certificate)},
                 ["no shared atom under the required sequences; falsifying "
                  "assignment:", "  " + _compact(certificate)])


def cmd_check_proof(args) -> int:
    with open(args.proof) as handle:
        proof = jsonio.proof_from_json(json.load(handle))
    try:
        check_proof(proof)
    except ProofCheckError as exc:
        return _emit(args, EXIT_INVALID,
                     {"ok": False, "error": str(exc), "line": exc.line + 1},
                     [f"rejected: {exc}"])
    conclusion = render(proof.lines[-1].formula)
    return _emit(args, EXIT_VALID,
                 {"ok": True, "logic": proof.logic, "conclusion": conclusion},
                 [f"ok: proves {conclusion} in {proof.logic}"])


def cmd_transform_proof(args) -> int:
    with open(args.proof) as handle:
        proof = jsonio.proof_from_json(json.load(handle))
    with open(args.table) as handle:
        sub = jsonio.substitution_from_json(json.load(handle))
    transformed = transform_proof(proof, sub)
    payload = jsonio.proof_to_json(transformed)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.out}: proves "
              f"{render(transformed.lines[-1].formula)} in {transformed.logic}")
    else:
        _print_json(payload)
    return EXIT_VALID


def cmd_self_test(args) -> int:
    from .selftest import run_self_test
    ok = run_self_test(seed=args.seed, json_output=args.json)
    return EXIT_VALID if ok else EXIT_ERROR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lericone",
        description="decision procedures for sequence-sensitive propositional logics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p):
        p.add_argument("--mode", choices=["plain", "faithful"], default="plain")

    p = sub.add_parser("annotate", help="print the annotated parse tree")
    p.add_argument("formula")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("prove", help="decide a sequent")
    p.add_argument("sequent")
    add_mode(p)
    p.add_argument("--method", choices=["tableau", "brute", "skeleton", "all"],
                   default="all")
    p.add_argument("--cap", type=int, default=24,
                   help="enumeration cap in keys (default 24)")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("substitute", help="apply a substitution at the root")
    p.add_argument("formula")
    p.add_argument("--godel", action="store_true",
                   help="use the prime-power atom coding")
    p.add_argument("--table", help="substitution table JSON file")
    p.set_defaults(func=cmd_substitute)

    p = sub.add_parser("skeleton", help="injective renaming per (sequence, atom) key")
    p.add_argument("sequent")
    add_mode(p)
    p.add_argument("--godel", action="store_true",
                   help="key fresh atoms by the prime-power coding")
    p.set_defaults(func=cmd_skeleton)

    p = sub.add_parser("share", help="sharing witness or falsifying certificate")
    p.add_argument("formula")
    add_mode(p)
    p.set_defaults(func=cmd_share)

    p = sub.add_parser("check-proof", help="validate a Hilbert proof file")
    p.add_argument("proof")
    p.set_defaults(func=cmd_check_proof)

    p = sub.add_parser("transform-proof",
                       help="rebuild a proof under a substitution")
    p.add_argument("proof")
    p.add_argument("table")
    p.add_argument("-o", "--out", help="write the transformed proof here")
    p.set_defaults(func=cmd_transform_proof)

    p = sub.add_parser("self-test", help="seeded randomized cross-checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_self_test)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="JSON output")
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, CapacityError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
