import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lericone.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_annotate(capsys):
    code, out, _ = run(capsys, "annotate", "~p1 -> (p1 -> p2)")
    assert code == 0
    assert out == ("~p1 -> (p1 -> p2)   [ε]\n"
                   "  ~p1   [c]\n"
                   "    p1   [nc]\n"
                   "  p1 -> p2   [c]\n"
                   "    p1   [lc]\n"
                   "    p2   [rc]\n")

    code, out, _ = run(capsys, "annotate", "p1")
    assert code == 0 and "ε" in out

    code, out, _ = run(capsys, "annotate", "~(p1 -> p2)", "--json")
    data = json.loads(out)
    seqs = {entry["seq"] for entry in data["annotation"]}
    assert {"ln", "rn"} <= seqs


def test_prove_exit_codes(capsys):
    code, _, _ = run(capsys, "prove", "p1 -> ~~p1", "--mode", "plain")
    assert code == 1
    code, _, _ = run(capsys, "prove", "p1 -> ~~p1", "--mode", "faithful")
    assert code == 0
    code, _, _ = run(capsys, "prove", "(p1->p2)|(p2->p3)")
    assert code == 0
    code, _, _ = run(capsys, "prove", "(p1->(p1->p2))->(p1->p2)")
    assert code == 1
    code, _, err = run(capsys, "prove", "p1 -> ")
    assert code == 2 and "error" in err


def test_prove_json_carries_countermodel(capsys):
    code, out, _ = run(capsys, "prove", "p1 -> ~~p1", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "invalid"
    assert data["methods"] == ["brute", "skeleton", "tableau"]
    # under --method all the tableau verdict is primary
    entries = {(e["seq"], e["atom"]): e["value"]
               for e in data["countermodel"]["entries"]}
    assert entries == {("c", 1): 1}
    assert data["countermodel"]["default"] == 0


def test_substitute_godel_bit_exact(capsys):
    code, out, _ = run(capsys, "substitute", "--godel", "~p1 -> (p1 -> p1)")
    assert code == 0
    assert out.strip() == "~p20250 -> (p750 -> p2250)"


def test_substitute_table(tmp_path, capsys):
    table = tmp_path / "sub.json"
    table.write_text(json.dumps({
        "keying": "raw",
        "entries": [{"seq": "c", "atom": 1, "image": "p2 & p3"}]}))
    code, out, _ = run(capsys, "substitute", "p1 -> p1", "--table", str(table))
    assert code == 0
    assert out.strip() == "(p2 & p3) -> (p2 & p3)"

    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps({"keying": "plain", "entries": []}))
    code, out, _ = run(capsys, "substitute", "~p1 | p2", "--table", str(identity))
    assert code == 0 and out.strip() == "~p1 | p2"

    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps({"keying": "raw", "entries": [
        {"seq": "c", "atom": 1, "image": "p2"},
        {"seq": "c", "atom": 1, "image": "p3"}]}))
    code, out, err = run(capsys, "substitute", "p1 -> p1", "--table", str(twice))
    assert code == 2 and "conflicting images" in err and out == ""


def test_skeleton(capsys):
    code, out, _ = run(capsys, "skeleton", "p1 -> ~~p1")
    assert code == 0 and out.splitlines()[0] == "p1 -> ~~p2"
    code, out, _ = run(capsys, "skeleton", "p1 -> ~~p1", "--mode", "faithful")
    assert out.splitlines()[0] == "p1 -> ~~p1"
    code, out, _ = run(capsys, "skeleton", "p1 -> p1", "--json")
    data = json.loads(out)
    assert data["skeleton"] == "p1 -> p1"
    assert data["renaming"]["entries"] == [{"seq": "c", "atom": 1, "fresh": 1}]


def test_share(capsys):
    code, out, _ = run(capsys, "share", "(p1 -> p2) -> (p1 -> p2)")
    assert code == 0 and "p1" in out and "lc" in out

    code, out, _ = run(capsys, "share", "p1 -> (p2 | ~p2)", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["witness"] is None
    assert data["certificate"]["entries"]

    code, _, _ = run(capsys, "share", "p1 -> ~~p1", "--mode", "faithful")
    assert code == 0
    code, _, err = run(capsys, "share", "p1 & p2")
    assert code == 2 and "implication" in err


def test_check_and_transform_proof(tmp_path, capsys):
    proof = {
        "logic": "B",
        "lines": [
            {"formula": "~~p1 -> p1", "just": {"axiom": "A9"}},
        ],
    }
    proof_file = tmp_path / "proof.json"
    proof_file.write_text(json.dumps(proof))

    code, out, _ = run(capsys, "check-proof", str(proof_file))
    assert code == 0 and "ok" in out

    table_file = tmp_path / "sub.json"
    table_file.write_text(json.dumps({
        "keying": "faithful",
        "entries": [{"seq": "c", "atom": 1, "image": "p2"}]}))
    out_file = tmp_path / "transformed.json"
    code, out, _ = run(capsys, "transform-proof", str(proof_file),
                       str(table_file), "-o", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["lines"][-1]["formula"] == "~~p2 -> p2"

    code, out2, _ = run(capsys, "check-proof", str(out_file))
    assert code == 0

    bad = dict(proof, logic="BM")
    proof_file.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "check-proof", str(proof_file))
    assert code == 1 and "A9" in out


def test_check_proof_json_reports_line(tmp_path, capsys):
    proof = {"logic": "BM",
             "lines": [{"formula": "p1 -> p2", "just": {"axiom": "A1"}}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(proof))
    code, out, _ = run(capsys, "check-proof", str(path), "--json")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False and data["line"] == 1


def test_self_test_runs(capsys):
    code, out, _ = run(capsys, "self-test", "--seed", "3")
    assert code == 0
    assert "self-test passed" in out


def test_method_selection(capsys):
    for method in ("tableau", "brute", "skeleton"):
        code, _, _ = run(capsys, "prove", "p1 -> p1", "--method", method)
        assert code == 0


def test_prove_sequent_syntax(capsys):
    code, _, _ = run(capsys, "prove", "p1 & p2 |- p1")
    assert code == 0
    code, _, _ = run(capsys, "prove", "p1, p1 -> p2 |- p2")
    assert code == 1


def test_method_disagreement_exits_2_with_dump(capsys, monkeypatch):
    from lericone import cli
    from lericone.semantics import Verdict

    def broken(sequent, mode, method, cap):
        return Verdict("invalid" if method == "brute" else "valid", None, method)

    monkeypatch.setattr(cli, "_run_method", broken)
    code = main(["prove", "p1 -> p1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "disagree" in captured.err
    assert "brute" in captured.err  # the dump names the dissenting method


def test_out_of_memory_exits_2(capsys, monkeypatch):
    from lericone import cli

    def exhausted(sequent, mode, method, cap):
        raise MemoryError

    monkeypatch.setattr(cli, "_run_method", exhausted)
    code, out, err = run(capsys, "prove", "p1 -> p1")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_prove_over_cap_falls_back_to_tableau(capsys):
    wide = " | ".join(f"(p{i} -> p{i + 1})" for i in range(2, 28, 2))
    code, out, _ = run(capsys, "prove", f"(p1 -> p2) -> ({wide})", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["methods"] == ["tableau"]
    assert len(data["notes"]) == 2

    code, _, err = run(capsys, "prove", f"(p1 -> p2) -> ({wide})",
                       "--method", "brute")
    assert code == 2 and "cap" in err


def test_prove_rejects_negative_cap(capsys):
    code, out, err = run(capsys, "prove", "--cap", "-1", "p1 -> p1")
    assert code == 2 and "error" in err and "cap" in err
    assert out == ""


@pytest.mark.parametrize("command, proof, table", [
    ("check-proof", {"logic": "BM", "lines": []}, None),
    ("check-proof", {"logic": "BM", "lines": [
        {"formula": "p1 -> p1", "just": {"axiom": "A1"}},
        {"formula": "(p1 -> p1) & (p1 -> p1)",
         "just": {"rule": "R1", "from": ["x", 1]}}]}, None),
    ("transform-proof", {"logic": "BM", "lines": [
        {"formula": "p1 -> p1", "just": {"axiom": "A1"}}]},
     {"keying": "raw", "entries": [{"seq": "c", "atom": 1}]}),
    ("check-proof", {"logic": "BM", "lines": [
        {"formula": "p1 -> p1", "just": {"axiom": ["A1"]}}]}, None),
    ("check-proof", {"logic": "BM", "lines": [
        {"formula": "p1 -> p1", "just": {"axiom": "A1"}},
        {"formula": "(p1 -> p1) & (p1 -> p1)",
         "just": {"rule": ["R1"], "from": [1]}}]}, None),
] + [("transform-proof", {"logic": "BM", "lines": [
        {"formula": "p1 -> p1", "just": {"axiom": "A1"}}]},
      {"keying": "raw", "entries": [{"seq": "c", "atom": atom, "image": "p2"}]})
     for atom in (1.7, True, "1", -3, 0)])
def test_malformed_json_exits_2(tmp_path, capsys, command, proof, table):
    proof_file = tmp_path / "proof.json"
    proof_file.write_text(json.dumps(proof))
    argv = [command, str(proof_file)]
    if table is not None:
        table_file = tmp_path / "table.json"
        table_file.write_text(json.dumps(table))
        argv.append(str(table_file))
    code, _, err = run(capsys, *argv)
    assert code == 2 and "error" in err


def test_deep_formula_exits_2(capsys):
    code, _, err = run(capsys, "prove", "~" * 1200 + "p1")
    assert code == 2 and "error: formula nested too deeply" in err


def _pretty(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


_CAP_NOTE = ("2 keys exceed the enumeration cap of 1, which brute force and the "
             "skeleton method share; raise --cap or use the tableau")
_PROOF_OK = {"logic": "B",
             "lines": [{"formula": "~~p1 -> p1", "just": {"axiom": "A9"}}]}
_PROOF_BAD = dict(_PROOF_OK, logic="BM")
_P1_CERTIFICATE = {"default": 1, "faithful": False, "keying": "raw", "entries": [
    {"seq": "c", "atom": 1, "value": 1}, {"seq": "nnc", "atom": 1, "value": 0}]}


@pytest.mark.parametrize("argv, code, out, err", [
    (["annotate", "~p1 -> (p1 -> p2)"], 0,
     "~p1 -> (p1 -> p2)   [ε]\n  ~p1   [c]\n    p1   [nc]\n"
     "  p1 -> p2   [c]\n    p1   [lc]\n    p2   [rc]\n", ""),
    (["annotate", "p1 -> p2", "--json"], 0, _pretty({
        "formula": "p1 -> p2", "annotation": [
            {"path": [], "seq": "", "subformula": "p1 -> p2"},
            {"path": ["left"], "seq": "c", "subformula": "p1"},
            {"path": ["right"], "seq": "c", "subformula": "p2"}]}), ""),
    (["prove", "p1 -> ~~p1", "--cap", "1"], 1,
     f"p1 -> ~~p1  [plain]: invalid\n"
     f"  note: brute skipped: {_CAP_NOTE}\n"
     f"  note: skeleton skipped: {_CAP_NOTE}\n"
     '  countermodel: {"default": 0, "faithful": false, "keying": "raw", '
     '"entries": [{"seq": "c", "atom": 1, "value": 1}]}\n', ""),
    (["prove", "p1 -> ~~p1", "--cap", "1", "--json"], 1, _pretty({
        "status": "invalid", "method": "tableau", "methods": ["tableau"],
        "mode": "plain", "sequent": "p1 -> ~~p1",
        "notes": [f"brute skipped: {_CAP_NOTE}", f"skeleton skipped: {_CAP_NOTE}"],
        "countermodel": {"default": 0, "faithful": False, "keying": "raw",
                         "entries": [{"seq": "c", "atom": 1, "value": 1}]}}), ""),
    (["prove", "p1 |- p1", "--method", "tableau", "--json"], 0, _pretty({
        "status": "valid", "method": "tableau", "methods": ["tableau"],
        "mode": "plain", "sequent": "p1 |- p1",
        "proof": {"mode": "plain", "tree": [{"closure": {
            "positive": {"formula": "p1", "seq": "", "sign": 1},
            "negative": {"formula": "p1", "seq": "", "sign": 0}}}]}}), ""),
    (["substitute", "--godel", "~p1 -> p1"], 0, "~p20250 -> p54\n", ""),
    (["substitute", "--godel", "~p1 -> p1", "--json"], 0,
     _pretty({"input": "~p1 -> p1", "image": "~p20250 -> p54"}), ""),
    (["skeleton", "p1 |- ~~p1"], 0,
     "p1 |- ~~p2\n  p1 <- (p1 at ε)\n  p2 <- (p1 at nn)\n", ""),
    (["skeleton", "p1 -> ~~p1", "--json"], 0, _pretty({
        "skeleton": "p1 -> ~~p2", "renaming": {"mode": "plain", "entries": [
            {"seq": "c", "atom": 1, "fresh": 1},
            {"seq": "nnc", "atom": 1, "fresh": 2}]}}), ""),
    (["share", "(p1 -> p2) -> (p1 -> p2)"], 0,
     "shared: p1 at lc (mode plain)\n", ""),
    (["share", "(p1 -> p2) -> (p1 -> p2)", "--json"], 0, _pretty({"witness": {
        "atom": 1, "seq": "lc", "antecedent_path": ["left", "left"],
        "consequent_path": ["right", "left"], "mode": "plain"}}), ""),
    (["share", "p1 -> ~~p1"], 1,
     "no shared atom under the required sequences; falsifying assignment:\n  "
     + json.dumps(_P1_CERTIFICATE) + "\n", ""),
    (["share", "p1 -> ~~p1", "--json"], 1,
     _pretty({"witness": None, "certificate": _P1_CERTIFICATE}), ""),
    (["check-proof", _PROOF_OK], 0, "ok: proves ~~p1 -> p1 in B\n", ""),
    (["check-proof", _PROOF_OK, "--json"], 0,
     _pretty({"ok": True, "logic": "B", "conclusion": "~~p1 -> p1"}), ""),
    (["check-proof", _PROOF_BAD], 1,
     "rejected: line 1: A9 is not available in BM\n", ""),
    (["check-proof", _PROOF_BAD, "--json"], 1, _pretty({
        "ok": False, "error": "line 1: A9 is not available in BM", "line": 1}), ""),
    (["substitute", "p1"], 2, "", "error: supply --godel or --table FILE\n"),
    (["share", "p1 & p2"], 2, "", "error: share expects an implication\n"),
    (["prove", "p1 -> p1", "--broken-brute"], 2, "", json.dumps({
        "sequent": "p1 -> p1", "mode": "plain", "disagreement": {
            "tableau": {"status": "valid", "method": "tableau"},
            "brute": {"status": "invalid", "method": "brute"},
            "skeleton": {"status": "valid", "method": "skeleton"}}}, indent=2)
     + "\nerror: methods disagree; see diagnostic dump\n"),
    (["prove", "p1, , p2 |- p1"], 2, "", "error: at offset 4: empty premise\n"),
])
def test_exact_output(tmp_path, capsys, monkeypatch, argv, code, out, err):
    """Full stdout, stderr and exit code.  A dict in argv is written to a
    proof file; ``--broken-brute`` makes brute force dissent."""
    if "--broken-brute" in argv:
        from lericone import cli
        from lericone.semantics import Verdict
        monkeypatch.setattr(cli, "_run_method", lambda sequent, mode, method, cap:
                            Verdict("invalid" if method == "brute" else "valid",
                                    None, method))
    proof_file = tmp_path / "proof.json"
    for arg in argv:
        if isinstance(arg, dict):
            proof_file.write_text(json.dumps(arg))
    argv = [str(proof_file) if isinstance(arg, dict) else arg
            for arg in argv if arg != "--broken-brute"]
    assert run(capsys, *argv) == (code, out, err)


def test_text_prove_builds_no_proof_tree(capsys, monkeypatch):
    from lericone import jsonio

    def refuse(proof):
        raise AssertionError("text output encoded the tableau proof")

    monkeypatch.setattr(jsonio, "tableau_proof_to_json", refuse)
    code, out, _ = run(capsys, "prove", "p1 & p2 |- p1")
    assert code == 0 and out == "p1 & p2 |- p1  [plain]: valid\n"


_FUZZ_PROOF = {"logic": "BM", "lines": [
    {"formula": "p1 -> p1", "just": {"axiom": "A1"}},
    {"formula": "(p1 -> p1) & (p1 -> p1)", "just": {"rule": "R1", "from": [1, 1]}}]}
_FUZZ_TABLE = {"keying": "faithful", "entries": [
    {"seq": "c", "atom": 1, "image": "p2 & p3"},
    {"seq": "nc", "atom": 1, "image": "~p2"}]}
_FUZZ_WORDS = ["logic", "lines", "formula", "just", "axiom", "rule", "from",
               "keying", "entries", "seq", "atom", "image", "B", "BM", "A1",
               "A9", "R1", "R2", "raw", "faithful", "plain", "c", "nc", "lc",
               "", "p1", "~p1", "p1 -> p1", "p1 &", "p0"]
_FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.integers() | st.floats()
    | st.sampled_from(_FUZZ_WORDS) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(_FUZZ_WORDS), inner, max_size=3)),
    max_leaves=6)


def _mutated(data, doc):
    """``doc`` with one value replaced, or one member dropped or added, at
    a place drawn from ``data``; ``doc`` itself is left as it is."""
    if not doc or not isinstance(doc, (dict, list)):
        return data.draw(_FUZZ_JSON)
    action = data.draw(st.sampled_from(["replace", "descend", "drop", "add"]))
    if action == "replace":
        return data.draw(_FUZZ_JSON)
    doc = doc.copy()
    if action == "add":
        if isinstance(doc, dict):
            doc[data.draw(st.sampled_from(_FUZZ_WORDS))] = data.draw(_FUZZ_JSON)
        else:
            doc.append(data.draw(_FUZZ_JSON))
        return doc
    key = data.draw(st.sampled_from(sorted(doc) if isinstance(doc, dict)
                                    else range(len(doc))))
    if action == "drop":
        del doc[key]
    else:
        doc[key] = _mutated(data, doc[key])
    return doc


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_json_never_escapes(tmp_path, capsys, data):
    """Proof and table JSON with a few values replaced, dropped or added:
    no exception leaves ``main``, and exit 1 only ever means that
    check-proof rejected the proof."""
    proof, table = _FUZZ_PROOF, _FUZZ_TABLE
    for _ in range(data.draw(st.integers(0, 2))):
        proof = _mutated(data, proof)
    for _ in range(data.draw(st.integers(0, 2))):
        table = _mutated(data, table)
    proof_file, table_file = tmp_path / "proof.json", tmp_path / "table.json"
    proof_file.write_text(json.dumps(proof))
    table_file.write_text(json.dumps(table))
    for argv in (["check-proof", proof_file],
                 ["transform-proof", proof_file, table_file],
                 ["substitute", "~p1 -> (p1 -> p2)", "--table", table_file]):
        code, out, _ = run(capsys, *map(str, argv))
        assert code in (0, 2) or (code == 1 and argv[0] == "check-proof"
                                  and out.startswith("rejected:")), (argv, out)
