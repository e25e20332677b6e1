import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lericone.cli import main
from lericone.formula import parse_sequent


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


def test_internal_defect_exits_2(capsys, monkeypatch):
    from lericone import semantics

    # the skeleton decider re-checks its countermodel; a defect there is an
    # error (exit 2), never "invalid" (exit 1)
    monkeypatch.setattr(semantics, "falsifies", lambda f, s: False)
    code, out, err = run(capsys, "prove", "--method", "skeleton", "p1 -> p2")
    assert (code, out, err) == (
        2, "", "error: internal error: pulled-back countermodel failed to "
               "falsify the sequent; this indicates a defect in the skeleton "
               "reduction\n")


def test_any_internal_fault_exits_2(capsys, monkeypatch):
    from lericone import cli

    def broken(sequent):
        raise TypeError("unsupported operand")

    # a defect outside every expected error class is still exit 2 with one
    # line, never a traceback and exit 1
    monkeypatch.setattr(cli, "render_sequent", broken)
    assert run(capsys, "prove", "p1 -> p1") == (
        2, "", "error: internal error: unsupported operand\n")


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


_ONE_LINE = {"logic": "BM", "lines": [{"formula": "p1 -> p1", "just": {"axiom": "A1"}}]}


@pytest.mark.parametrize("proof, table, message", [
    ({"logic": "BM", "lines": [{"formula": 5, "just": {"axiom": "A1"}}]}, None,
     "formulas must be strings, got 5"),
    ({"logic": "BM", "lines": [{"formula": None, "just": {"axiom": "A1"}}]}, None,
     "formulas must be strings, got None"),
    (_ONE_LINE, {"keying": "raw", "entries": [{"seq": "c", "atom": 1, "image": 5}]},
     "images must be strings, got 5"),
    (_ONE_LINE, {"keying": "raw", "entries": [{"seq": 5, "atom": 1, "image": "p2"}]},
     "sequences must be strings, got 5"),
    (_ONE_LINE, {"keying": "faithful", "entries": [{"seq": ["c"], "atom": 1,
                                                    "image": "p2"}]},
     "sequences must be strings, got ['c']"),
    # a container of the wrong kind is named where the decoder reads it
    ({"logic": "BM", "lines": 5}, None, "lines must be a list, got 5"),
    ({"logic": "BM", "lines": [5]}, None, "proof lines must be objects, got 5"),
    ({"logic": "BM", "lines": [{"formula": "p1 -> p1", "just": 5}]}, None,
     "justifications must be objects, got 5"),
    ({"logic": "BM", "lines": [{"formula": "p1 -> p1",
                                "just": {"rule": "R1", "from": 5}}]}, None,
     "premise references must be line numbers: 5"),
    (None, None, "proofs must be objects, got None"),
    ([1, 2], None, "proofs must be objects, got [1, 2]"),
    ("x", None, "proofs must be objects, got 'x'"),
    (_ONE_LINE, {"keying": "raw", "entries": 5}, "entries must be a list, got 5"),
    (_ONE_LINE, {"keying": "raw", "entries": [5]}, "entries must be objects, got 5"),
    (_ONE_LINE, [5], "entries must be objects, got 5"),
    (_ONE_LINE, None, "substitution tables must be objects or lists, got None"),
    (_ONE_LINE, "x", "substitution tables must be objects or lists, got 'x'"),
])
def test_decoders_name_the_field(tmp_path, capsys, proof, table, message):
    proof_file, table_file = tmp_path / "proof.json", tmp_path / "table.json"
    proof_file.write_text(json.dumps(proof))
    table_file.write_text(json.dumps(table))
    if proof is _ONE_LINE:  # the table is the document under test
        calls = [["transform-proof", str(proof_file), str(table_file)],
                 ["substitute", "p1 -> p2", "--table", str(table_file)]]
    else:
        calls = [["check-proof", str(proof_file)]]
    for argv in calls:
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_no_decoder_message_speaks_for_the_interpreter(tmp_path, capsys):
    from test_golden import _BAD_DOCS

    proof, table = tmp_path / "proof.json", tmp_path / "table.json"
    proof.write_text(json.dumps(_ONE_LINE))
    table.write_text(json.dumps({"keying": "raw", "entries": []}))
    bad = tmp_path / "bad.json"
    for doc in _BAD_DOCS:
        bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        for argv in (["check-proof", bad], ["transform-proof", bad, table],
                     ["transform-proof", proof, bad],
                     ["substitute", "p1", "--table", bad]):
            code, _, err = run(capsys, *map(str, argv))
            assert code in (0, 2)
            for wording in ("not subscriptable", "not iterable", "indices must be",
                            "has no len()"):
                assert wording not in err, (doc, argv[0], err)
    # a long value is quoted abridged
    bad.write_text(json.dumps({"logic": "BM", "lines": {str(i): i for i in range(10**4)}}))
    code, _, err = run(capsys, "check-proof", str(bad))
    assert code == 2 and err.startswith("error: lines must be a list, got {") and len(err) < 80
    # a bare entry list is a raw table, and an empty one is the identity
    bad.write_text("[]")
    assert run(capsys, "substitute", "p1 -> p2", "--table", str(bad)) == (
        0, "p1 -> p2\n", "")


def test_deep_formula_exits_2(capsys):
    code, _, err = run(capsys, "prove", "~" * 1200 + "p1")
    assert code == 2 and "error: formula nested too deeply" in err


def test_deep_json_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    proof = tmp_path / "proof.json"
    proof.write_text(json.dumps({"logic": "BM", "lines": [
        {"formula": "p1 -> p1", "just": {"axiom": "A1"}}]}))
    for argv in (["check-proof", deep], ["transform-proof", deep, deep],
                 ["transform-proof", proof, deep], ["substitute", "p1", "--table", deep]):
        assert run(capsys, *map(str, argv)) == (
            2, "", "error: JSON document nested too deeply\n")


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
    (["substitute", "p1", "--godel", "--table", "missing.json"], 2, "",
     "error: supply --godel or --table FILE\n"),
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


_SEQUENT_TEXT = st.text(st.sampled_from("p0123456789~&|->(), ") | st.characters(),
                        max_size=24)


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_SEQUENT_TEXT)
def test_unparsable_sequents_exit_2(capsys, text):
    """Short sequent texts, mostly from the sequent alphabet: no exception
    leaves ``main``, and text that ``parse_sequent`` rejects exits 2 with
    nothing on stdout.  The text follows ``--`` so that one starting with
    ``-`` reaches the parser rather than the option parser."""
    try:
        parse_sequent(text)
        parsed = True
    except Exception:
        parsed = False
    code, out, _ = run(capsys, "prove", "--method", "tableau", "--", text)
    if parsed:
        assert code in (0, 1), text
    else:
        assert (code, out) == (2, ""), text


@pytest.mark.parametrize("command", [
    ["prove", "--method", "tableau"], ["annotate"], ["skeleton"], ["share"]])
def test_option_prefixes_are_not_abbreviations(capsys, command):
    # "--h" is a prefix of --help only: as an abbreviation it would print
    # the usage and exit 0, the "valid" code
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--h"])
    out = capsys.readouterr()
    assert exit_.value.code == 2
    assert out.out == "" and "required" in out.err


def test_option_like_sequent_after_double_dash_is_parsed(capsys):
    code, out, err = run(capsys, "prove", "--", "--h")
    assert (code, out) == (2, "")
    assert err.startswith("error: at offset 0: unexpected '-'")


# command -> (positional count, options taking a value with typical values,
# flags); self-test is left out, as it takes seconds
_MODES = ["plain", "faithful"]
_COMMAND_SHAPES = {
    "annotate": (1, {}, []),
    "prove": (1, {"--mode": _MODES, "--method": ["tableau", "brute", "skeleton", "all"],
                  "--cap": ["0", "3", "24"]}, []),
    "substitute": (1, {"--table": ["table.json", "proof.json"]}, ["--godel"]),
    "skeleton": (1, {"--mode": _MODES}, ["--godel"]),
    "share": (1, {"--mode": _MODES}, []),
    "check-proof": (1, {}, []),
    "transform-proof": (2, {"-o": ["out.json"], "--out": ["out.json"]}, []),
}
_TYPICAL = ["p1", "p0", "~p1 -> (p1 -> p2)", "p1 |- p1", "p1, p1 -> p2 |- p2",
            "p1 & (p2", "proof.json", "table.json", "missing.json"]
_ANY_TOKEN = st.text(max_size=8) | st.sampled_from(["-", "--h", "-x", "--cap", "-o"])


@settings(max_examples=2_000, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(_COMMAND_SHAPES)), data=st.data())
def test_every_command_keeps_the_exit_code_contract(tmp_path, monkeypatch, capsys,
                                                     command, data):
    """Arbitrary arguments to every command but self-test: the exit code is
    0, 1 or 2, 0 and 1 come with output on stdout, and nothing but
    argparse's SystemExit(2) leaves ``main``."""
    def argument(typical):  # mostly a typical value, else any token at all
        if data.draw(st.integers(0, 3)):
            return data.draw(st.sampled_from(typical))
        return data.draw(_ANY_TOKEN)

    positionals, valued, flags = _COMMAND_SHAPES[command]
    argv = [command]
    for _ in range(data.draw(st.integers(0, 3))):
        argv.append(data.draw(st.sampled_from(sorted(valued) + flags + ["--json"])))
        if argv[-1] in valued:
            argv.append(argument(valued[argv[-1]]))
    if data.draw(st.booleans()):
        argv.append("--")
    argv += [argument(_TYPICAL) for _ in range(positionals)]
    argv += data.draw(st.lists(_ANY_TOKEN, max_size=1))  # now and then, one more
    argv = [token for token in argv if token not in ("-h", "--help")]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "proof.json").write_text(json.dumps(_FUZZ_PROOF))
    (tmp_path / "table.json").write_text(json.dumps(_FUZZ_TABLE))
    try:
        code, out, _ = run(capsys, *argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return
    assert code in (0, 1, 2), argv
    assert code == 2 or out, argv
