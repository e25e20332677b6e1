"""Command-line front end.

One table, ``_COMMANDS``, declares each command's handler, help and
arguments.  Sequents separate premises with commas and use ``|-`` before
the conclusion, e.g. ``"p1, p1->p2 |- p2"``.

Commands annotate to check-proof hand an exit code, a JSON payload and
text lines to one emitter, which prints the payload under ``--json``,
else the text.  Errors raise; :func:`main` is their one exit path: one
``error: ...`` line (``error: internal error: ...`` for a defect) and
exit code 2.

Exit codes: 0 for valid / witness found / checks passed, 1 for invalid /
no witness / proof rejected, 2 for errors (including any internal
disagreement between methods under ``--method all``).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .formula import Imp, parse, parse_sequent, render, render_sequent
from .hilbert import ProofCheckError, check_proof, conclusion, transform_proof
from .relevance import certify_irrelevance, lericone_sharing
from .semantics import _DEFAULT_CAP, CapacityError, brute_consequence, decide
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


def _load_json(path: str):
    """A JSON file's document; one nested too deeply to decode is a
    ValueError, not a formula's RecursionError."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError("JSON document nested too deeply") from None


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
    if args.godel == bool(args.table):
        raise ValueError("supply --godel or --table FILE")
    sub = (godel_substitution() if args.godel
           else jsonio.substitution_from_json(_load_json(args.table)))
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
    proof = jsonio.proof_from_json(_load_json(args.proof))
    try:
        check_proof(proof)
    except ProofCheckError as exc:
        return _emit(args, EXIT_INVALID,
                     {"ok": False, "error": str(exc), "line": exc.line + 1},
                     [f"rejected: {exc}"])
    proved = render(conclusion(proof))
    return _emit(args, EXIT_VALID,
                 {"ok": True, "logic": proof.logic, "conclusion": proved},
                 [f"ok: proves {proved} in {proof.logic}"])


def cmd_transform_proof(args) -> int:
    proof = jsonio.proof_from_json(_load_json(args.proof))
    sub = jsonio.substitution_from_json(_load_json(args.table))
    transformed = transform_proof(proof, sub)
    payload = jsonio.proof_to_json(transformed)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.out}: proves "
              f"{render(conclusion(transformed))} in {transformed.logic}")
    else:
        _print_json(payload)
    return EXIT_VALID


def cmd_self_test(args) -> int:
    from .selftest import run_self_test
    ok = run_self_test(seed=args.seed, json_output=args.json)
    return EXIT_VALID if ok else EXIT_ERROR


_MODE = ("--mode", {"choices": ["plain", "faithful"], "default": "plain"})

# name -> (handler, help, arguments as (*flags, add_argument keywords));
# every command also takes --json
_COMMANDS = {
    "annotate": (cmd_annotate, "print the annotated parse tree", [("formula", {})]),
    "prove": (cmd_prove, "decide a sequent", [
        ("sequent", {}), _MODE,
        ("--method", {"choices": ["tableau", "brute", "skeleton", "all"],
                      "default": "all"}),
        ("--cap", {"type": int, "default": _DEFAULT_CAP,
                   "help": "enumeration cap in keys (default %(default)s)"})]),
    "substitute": (cmd_substitute, "apply a substitution at the root", [
        ("formula", {}),
        ("--godel", {"action": "store_true", "help": "use the prime-power atom coding"}),
        ("--table", {"help": "substitution table JSON file"})]),
    "skeleton": (cmd_skeleton, "injective renaming per (sequence, atom) key", [
        ("sequent", {}), _MODE,
        ("--godel", {"action": "store_true",
                     "help": "key fresh atoms by the prime-power coding"})]),
    "share": (cmd_share, "sharing witness or falsifying certificate",
              [("formula", {}), _MODE]),
    "check-proof": (cmd_check_proof, "validate a Hilbert proof file", [("proof", {})]),
    "transform-proof": (cmd_transform_proof, "rebuild a proof under a substitution", [
        ("proof", {}), ("table", {}),
        ("-o", "--out", {"help": "write the transformed proof here"})]),
    "self-test": (cmd_self_test, "seeded randomized cross-checks",
                  [("--seed", {"type": int, "default": 0})]),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lericone", allow_abbrev=False,
        description="decision procedures for sequence-sensitive propositional logics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in _COMMANDS.items():
        # no prefix matching: "--h" is an argument, not "--help"
        p = sub.add_parser(name, allow_abbrev=False, help=help_text)
        for *flags, options in arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--json", action="store_true", help="JSON output")
        p.set_defaults(func=func)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapacityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
    except Exception as exc:  # a failed internal cross-check or any other defect
        print(f"error: internal error: {exc}", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
