"""Command-line front end.

Commands: annotate, prove, substitute, skeleton, share, check-proof,
transform-proof, self-test.  Sequents on the command line separate
premises with commas and use ``|-`` before the conclusion, e.g.
``"p1, p1->p2 |- p2"``.

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
                      render_sequent, subformula_at)
from .hilbert import ProofCheckError, check_proof, transform_proof
from .relevance import certify_irrelevance, lericone_sharing
from .semantics import CapacityError, brute_consequence, decide
from .seq import annotate
from .substitution import apply_lericone, godel_substitution, skeletonize
from .tableau import prove as tableau_prove

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_ERROR = 2


def _print_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def cmd_annotate(args) -> int:
    f = parse(args.formula)
    mapping = annotate(f)
    if args.json:
        _print_json({"formula": render(f),
                     "annotation": [{"path": list(path), "seq": seq,
                                     "subformula": render(subformula_at(f, path))}
                                    for path, seq in sorted(mapping.items())]})
        return EXIT_VALID
    for path, seq in sorted(mapping.items()):  # preorder, left to right
        label = seq if seq else "ε"
        print(f"{'  ' * len(path)}{render(subformula_at(f, path))}   [{label}]")
    return EXIT_VALID


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
            if args.method == "all" and method in ("brute", "skeleton"):
                notes.append(f"{method} skipped: {exc}")
            else:
                raise
    statuses = {v.status for v in verdicts.values()}
    if len(statuses) > 1:
        dump = {"sequent": render_sequent(sequent), "mode": args.mode,
                "disagreement": {m: jsonio.verdict_to_json(v)
                                 for m, v in verdicts.items()}}
        print(json.dumps(dump, indent=2), file=sys.stderr)
        print("error: methods disagree; see diagnostic dump", file=sys.stderr)
        return EXIT_ERROR
    primary = verdicts[methods[0]]
    if args.json:
        payload = jsonio.verdict_to_json(primary)
        payload["sequent"] = render_sequent(sequent)
        payload["mode"] = args.mode
        payload["methods"] = sorted(verdicts)
        if notes:
            payload["notes"] = notes
        if tableau_result is not None and tableau_result.proof is not None:
            payload["proof"] = jsonio.tableau_proof_to_json(tableau_result.proof)
        _print_json(payload)
    else:
        print(f"{render_sequent(sequent)}  [{args.mode}]: {primary.status}")
        for note in notes:
            print(f"  note: {note}")
        if primary.countermodel is not None:
            print("  countermodel: "
                  + json.dumps(jsonio.assignment_to_json(primary.countermodel)))
    return EXIT_VALID if primary.valid else EXIT_INVALID


def cmd_substitute(args) -> int:
    f = parse(args.formula)
    if args.godel:
        sub = godel_substitution()
    elif args.table:
        with open(args.table) as handle:
            sub = jsonio.substitution_from_json(json.load(handle))
    else:
        print("error: supply --godel or --table FILE", file=sys.stderr)
        return EXIT_ERROR
    image = apply_lericone(sub, "", f)
    if args.json:
        _print_json({"input": render(f), "image": render(image)})
    else:
        print(render(image))
    return EXIT_VALID


def cmd_skeleton(args) -> int:
    sequent = parse_sequent(args.sequent)
    skeleton, renaming = skeletonize(sequent, mode=args.mode, use_godel=args.godel)
    if args.json:
        _print_json({"skeleton": render_sequent(skeleton),
                     "renaming": jsonio.renaming_to_json(renaming)})
    else:
        print(render_sequent(skeleton))
        for (seq, atom), fresh in sorted(renaming.forward.items()):
            label = seq if seq else "ε"
            print(f"  p{fresh} <- (p{atom} at {label})")
    return EXIT_VALID


def cmd_share(args) -> int:
    f = parse(args.formula)
    if not isinstance(f, Imp):
        print("error: share expects an implication", file=sys.stderr)
        return EXIT_ERROR
    witness = lericone_sharing(f, args.mode)
    if witness is not None:
        if args.json:
            _print_json({"witness": jsonio.witness_to_json(witness)})
        else:
            print(f"shared: p{witness.atom} at {witness.sequence} "
                  f"(mode {args.mode})")
        return EXIT_VALID
    certificate = certify_irrelevance(f, args.mode)
    if args.json:
        _print_json({"witness": None,
                     "certificate": jsonio.assignment_to_json(certificate)})
    else:
        print("no shared atom under the required sequences; falsifying "
              "assignment:")
        print("  " + json.dumps(jsonio.assignment_to_json(certificate)))
    return EXIT_INVALID


def cmd_check_proof(args) -> int:
    with open(args.proof) as handle:
        proof = jsonio.proof_from_json(json.load(handle))
    try:
        check_proof(proof)
    except ProofCheckError as exc:
        if args.json:
            _print_json({"ok": False, "error": str(exc), "line": exc.line + 1})
        else:
            print(f"rejected: {exc}")
        return EXIT_INVALID
    if args.json:
        _print_json({"ok": True, "logic": proof.logic,
                     "conclusion": render(proof.lines[-1].formula)})
    else:
        print(f"ok: proves {render(proof.lines[-1].formula)} in {proof.logic}")
    return EXIT_VALID


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

    def add_json(p):
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("annotate", help="print the annotated parse tree")
    p.add_argument("formula")
    add_json(p)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("prove", help="decide a sequent")
    p.add_argument("sequent")
    add_mode(p)
    p.add_argument("--method", choices=["tableau", "brute", "skeleton", "all"],
                   default="all")
    p.add_argument("--cap", type=int, default=24,
                   help="enumeration cap in keys (default 24)")
    add_json(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("substitute", help="apply a substitution at the root")
    p.add_argument("formula")
    p.add_argument("--godel", action="store_true",
                   help="use the prime-power atom coding")
    p.add_argument("--table", help="substitution table JSON file")
    add_json(p)
    p.set_defaults(func=cmd_substitute)

    p = sub.add_parser("skeleton", help="injective renaming per (sequence, atom) key")
    p.add_argument("sequent")
    add_mode(p)
    p.add_argument("--godel", action="store_true",
                   help="key fresh atoms by the prime-power coding")
    add_json(p)
    p.set_defaults(func=cmd_skeleton)

    p = sub.add_parser("share", help="sharing witness or falsifying certificate")
    p.add_argument("formula")
    add_mode(p)
    add_json(p)
    p.set_defaults(func=cmd_share)

    p = sub.add_parser("check-proof", help="validate a Hilbert proof file")
    p.add_argument("proof")
    add_json(p)
    p.set_defaults(func=cmd_check_proof)

    p = sub.add_parser("transform-proof",
                       help="rebuild a proof under a substitution")
    p.add_argument("proof")
    p.add_argument("table")
    p.add_argument("-o", "--out", help="write the transformed proof here")
    add_json(p)
    p.set_defaults(func=cmd_transform_proof)

    p = sub.add_parser("self-test", help="seeded randomized cross-checks")
    p.add_argument("--seed", type=int, default=0)
    add_json(p)
    p.set_defaults(func=cmd_self_test)

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


if __name__ == "__main__":
    sys.exit(main())
