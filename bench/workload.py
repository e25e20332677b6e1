"""One benchmark workload in a fresh process.

    python3 bench/workload.py --src SRC --input OPS.jsonl --workload NAME
                              [--setup-only] [--no-check] [--trace-out STEM]

Set-up (importing ``lericone.cli`` and reading the input text) is timed
first.  ``--setup-only`` stops there.  Otherwise every operation in the
input runs once, in order, one after another: each starts from concrete
syntax or JSON text and ends with the JSON text the CLI would print.
Only the operation itself is timed; unless ``--no-check`` is given, its
outputs are checked against :mod:`reference` and closed-form
expectations after the timer stops.  The last line of standard output
is a JSON summary with every operation's time.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

args = argparse.ArgumentParser()
args.add_argument("--src", required=True)
args.add_argument("--input", required=True)
args.add_argument("--workload", required=True)
args.add_argument("--setup-only", action="store_true")
args.add_argument("--no-check", action="store_true")
args.add_argument("--trace-out")
ARGS = args.parse_args()

_T_STD = time.perf_counter()
sys.path.insert(0, ARGS.src)
import lericone.cli  # noqa: E402,F401
_T_IMPORT = time.perf_counter()
with open(ARGS.input) as _handle:
    INPUT_TEXT = _handle.read()
_T_LOADED = time.perf_counter()
SETUP = {"import_s": _T_IMPORT - _T_STD,
         "setup_s": _T_LOADED - _T_STD}

from lericone import formula, hilbert, jsonio, relevance, semantics, tableau  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference as R  # noqa: E402
import spans  # noqa: E402


class CheckFailed(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- JSON steps (their own spans in a traced run) -----------------------------------

def encode(to_json, *args) -> str:
    """What the CLI prints for the payload ``to_json(*args)``: indented,
    sorted keys, a newline."""
    return json.dumps(to_json(*args), indent=2, sort_keys=True) + "\n"


def decode(text: str, from_json):
    return from_json(json.loads(text))


# -- operations ----------------------------------------------------------------------

def prove_payload(sequent, mode: str, verdicts: dict, proof) -> dict:
    """``prove --json``: the first method's verdict, plus the tableau proof."""
    payload = jsonio.verdict_to_json(next(iter(verdicts.values())))
    payload["sequent"] = formula.render_sequent(sequent)
    payload["mode"] = mode
    payload["methods"] = sorted(verdicts)
    if proof is not None:
        payload["proof"] = jsonio.tableau_proof_to_json(proof)
    return payload


def share_payload(witness, certificate) -> dict:
    """``share --json``: a witness, or a certificate when there is none."""
    if witness is not None:
        return {"witness": jsonio.witness_to_json(witness)}
    return {"witness": None, "certificate": jsonio.assignment_to_json(certificate)}


def op_corpus(rec: dict) -> dict:
    """``prove --method all --json`` and, for an implication, ``share --json``."""
    mode = rec["mode"]
    s = formula.parse_sequent(rec["text"])
    result = tableau.prove(s, mode)
    verdicts = {"tableau": result.verdict(),
                "brute": semantics.brute_consequence(s, mode),
                "skeleton": semantics.decide(s, mode)}
    out = {"verdicts": verdicts,
           "json": [encode(prove_payload, s, mode, verdicts, result.proof)]}
    imp = s.conclusion
    if isinstance(imp, formula.Imp) and not s.premises:
        witness = relevance.lericone_sharing(imp, mode)
        certificate = None if witness else relevance.certify_irrelevance(imp, mode)
        out["json"].append(encode(share_payload, witness, certificate))
    return out


def op_tableau(rec: dict) -> dict:
    """``prove --method tableau --json``."""
    s = formula.parse_sequent(rec["text"])
    result = tableau.prove(s, rec["mode"])
    verdicts = {"tableau": result.verdict()}
    return {"verdicts": verdicts, "proof": result.proof,
            "json": [encode(prove_payload, s, rec["mode"], verdicts, result.proof)]}


def op_enum(rec: dict) -> dict:
    """``prove --method brute --json`` and ``prove --method skeleton --json``."""
    s = formula.parse_sequent(rec["text"])
    brute = semantics.brute_consequence(s, rec["mode"])
    skeleton = semantics.decide(s, rec["mode"])
    return {"verdicts": {"brute": brute, "skeleton": skeleton},
            "json": [encode(prove_payload, s, rec["mode"], {"brute": brute}, None),
                     encode(prove_payload, s, rec["mode"], {"skeleton": skeleton}, None)]}


def op_transform(rec: dict) -> dict:
    """``check-proof`` then ``transform-proof --json``."""
    proof = decode(rec["proof"], jsonio.proof_from_json)
    table = decode(rec["table"], jsonio.substitution_from_json)
    hilbert.check_proof(proof)
    transformed = hilbert.transform_proof(proof, table)
    return {"proof": transformed, "json": [encode(jsonio.proof_to_json, transformed)]}


# -- checks ----------------------------------------------------------------------------

def check_countermodels(verdicts: dict, sequent: tuple) -> None:
    statuses = {v.status for v in verdicts.values()}
    expect(len(statuses) == 1, f"deciders disagree: {statuses}")
    for method, verdict in verdicts.items():
        if verdict.countermodel is not None:
            value = R.assignment_value(jsonio.assignment_to_json(verdict.countermodel))
            expect(R.falsifies(value, *sequent),
                   f"{method} countermodel does not falsify the sequent")


def check_sharing(rec: dict, out: dict, sequent: tuple) -> None:
    """A valid implication has a witness whose two occurrences carry equal
    (plain) or reduct-equal (faithful) sequences; a certificate falsifies."""
    imp = sequent[1]
    shared = json.loads(out["json"][1])
    witness = shared["witness"]
    if witness is None:
        value = R.assignment_value(shared["certificate"])
        expect(R.evaluate(imp, value) == 0, "certificate does not falsify")
        return
    sides = [R.seq_at(imp, witness[k]) for k in ("antecedent_path", "consequent_path")]
    expect(all(node == ("p", witness["atom"]) for _, node in sides), "witness atom")
    norm = R.reduct if rec["mode"] == "faithful" else (lambda seq: seq)
    expect(norm(sides[0][0]) == norm(sides[1][0]), "witness sequences differ")


def check_corpus(rec: dict, out: dict, tracer) -> None:
    sequent = R.parse_sequent(rec["text"])
    check_countermodels(out["verdicts"], sequent)
    status = out["verdicts"]["tableau"].status
    if "verdict" in rec:
        expect(status == rec["verdict"], "verdict differs from the reference")
    if len(out["json"]) > 1:
        check_sharing(rec, out, sequent)
        expect(status == "invalid" or json.loads(out["json"][1])["witness"] is not None,
               "valid implication without a sharing witness")
    if tracer is not None:
        count_enumeration(tracer, sequent, rec["mode"])


def check_tableau(rec: dict, out: dict, tracer) -> None:
    sequent = R.parse_sequent(rec["text"])
    check_countermodels(out["verdicts"], sequent)
    status = out["verdicts"]["tableau"].status
    if rec["kind"] == "mirror":
        expect(status == "valid" and out["proof"] is not None, "mirror sequent not proved")
    else:
        expect(status == "invalid", "classically invalid sequent not invalid")


def check_enum(rec: dict, out: dict, tracer) -> None:
    sequent = R.parse_sequent(rec["text"])
    check_countermodels(out["verdicts"], sequent)
    for method, verdict in out["verdicts"].items():
        expect(verdict.status == rec["verdict"], f"{method} verdict")
        if rec["falsifier"] is not None:
            value = R.assignment_value(jsonio.assignment_to_json(verdict.countermodel))
            expect(all(value(seq, atom) == bit for seq, atom, bit in rec["falsifier"]),
                   f"{method} falsifier differs from the closed form")
    if tracer is not None:
        tracer.add("semantics.keys_max", rec["keys"])
        tracer.add("semantics.rows", 2 * (1 << rec["keys"]))


def check_transform(rec: dict, out: dict, tracer) -> None:
    """The output passes check_proof, ends in the reference image of the input's
    conclusion, and the tableau finds that image valid (BM plain, B faithful)."""
    transformed = out["proof"]
    hilbert.check_proof(transformed)
    source = json.loads(rec["proof"])
    table = json.loads(rec["table"])
    want = R.image(R.parse(source["lines"][-1]["formula"]), R.table_lookup(table))
    got = json.loads(out["json"][0])["lines"][-1]["formula"]
    expect(R.parse(got) == want, "conclusion is not the reference image")
    mode = "plain" if source["logic"] == "BM" else "faithful"
    conclusion = transformed.lines[-1].formula
    expect(tableau.prove(formula.Sequent((), conclusion), mode).status == "valid",
           "transformed conclusion not valid")


def count_enumeration(tracer, sequent: tuple, mode: str) -> None:
    """Keys and rows of the packed-column enumeration: brute and classical
    (inside decide) each enumerate the same key domain."""
    domain = set()
    for f in sequent[0] + (sequent[1],):
        domain |= R.keys(f, mode)
    tracer.add("semantics.keys_max", len(domain))
    tracer.add("semantics.rows", 2 * (1 << len(domain)))


WORKLOADS = {
    "corpus": (op_corpus, check_corpus),
    "tableau_large": (op_tableau, check_tableau),
    "enum_wide": (op_enum, check_enum),
    "proof_transform": (op_transform, check_transform),
}


def main() -> dict:
    if ARGS.setup_only:
        return SETUP
    run, check = WORKLOADS[ARGS.workload]
    tracer = None
    if ARGS.trace_out:
        tracer = spans.Tracer()
        spans.install(tracer, sys.modules[__name__])
    lines = INPUT_TEXT.splitlines()
    latencies, failed = [], []  # ns per operation; indices of failed ones
    output_bytes, problems = 0, []
    now = time.perf_counter_ns
    for index, line in enumerate(lines):
        rec = json.loads(line)
        if tracer is not None:
            tracer.current_op = index
        start = now()
        try:
            out = run(rec)
        except RecursionError:
            out = None
        latencies.append(now() - start)
        if tracer is not None:
            tracer.current_op = -1  # the checks below are not traced
        if out is None:
            failed.append(index)
            if not rec.get("deep"):
                problems.append(f"op {index}: RecursionError")
            continue
        output_bytes += sum(map(len, out["json"]))
        if ARGS.no_check:
            continue
        try:
            check(rec, out, tracer)
        except CheckFailed as exc:
            problems.append(f"op {index} ({rec.get('text', rec.get('group'))!s:.80}): {exc}")
    result = {
        "latencies_ns": latencies, "failed": failed,
        "problems": problems[:20], "output_bytes": output_bytes,
        "import_s": SETUP["import_s"], "setup_s": SETUP["setup_s"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["spans"] = len(tracer.start)
        tracer.write(ARGS.trace_out)
    return result


if __name__ == "__main__":
    print(json.dumps(main()))
