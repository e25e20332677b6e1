"""Spans around the calls into lericone's modules, recorded from outside.

:func:`install` replaces each traced public function, in every
``lericone`` module that holds a reference to it, by a wrapper that
records a span: name, start, end, parent span and the operation it
belongs to.  Calls between the package's own modules (``decide`` calling
``skeletonize``, ``transform_proof`` calling ``check_proof``) therefore
nest as child spans.  Spans live in compact arrays until the run ends.
Nothing is installed in an untraced run, so it pays nothing.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, function) -> span name; several functions may share a layer name.
SPANS = {
    ("formula", "parse"): "formula.parse",
    ("formula", "parse_sequent"): "formula.parse",
    ("formula", "render"): "formula.render",
    ("formula", "render_sequent"): "formula.render",
    ("substitution", "skeletonize"): "substitution.skeletonize",
    ("relevance", "lericone_sharing"): "relevance.sharing",
    ("relevance", "certify_irrelevance"): "relevance.certify",
    ("semantics", "brute_consequence"): "semantics.brute",
    ("semantics", "decide"): "semantics.decide",
    ("semantics", "classical_valid"): "semantics.classical",
    ("tableau", "prove"): "tableau.prove",
    ("hilbert", "check_proof"): "hilbert.check",
    ("hilbert", "transform_proof"): "hilbert.transform",
}
# The benchmark's own JSON steps (json text <-> jsonio objects).
JSON_SPANS = {"decode": "jsonio.decode", "encode": "jsonio.encode"}

COUNTS = ("formula.nodes", "substitution.skeleton_keys", "semantics.keys_max",
          "semantics.rows", "tableau.steps", "tableau.steps_to_verdict",
          "tableau.branches", "tableau.max_branch_len", "hilbert.lines_in",
          "hilbert.lines_out", "jsonio.bytes_out")
MAXIMA = ("semantics.keys_max", "tableau.max_branch_len")


def formula_nodes(text: str) -> int:
    """Connectives plus atom occurrences of a formula's concrete syntax."""
    return (text.count("p") + text.count("~") + text.count("&")
            + text.count("|") + text.count("->"))


def steps_to_verdict(result) -> int:
    """Recorded steps up to the one after which the leftmost open branch is
    saturated; every step for a closed tableau."""
    tableau = result.tableau
    if result.status == "valid":
        return len(tableau.steps)
    leftmost = next(b.ident for b in tableau.branches if b.is_open)
    last = -1
    for index, step in enumerate(tableau.steps):
        if step.branch == leftmost or any(ident == leftmost for ident, _ in step.results):
            last = index
    return last + 1


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self.name = array("B")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")  # 1 when no span of the same name encloses it
        self.start = array("q")
        self.end = array("q")
        self.stack: list = []
        self.open_by_name: dict = {}
        self.current_op = -1  # spans are recorded only while an operation runs
        self.counts = dict.fromkeys(COUNTS, 0)

    def add(self, metric: str, value: int) -> None:
        if metric in MAXIMA:
            self.counts[metric] = max(self.counts[metric], value)
        else:
            self.counts[metric] += value

    def wrap(self, fn, span: str, after=None):
        """``fn`` recording a span; ``after(tracer, args, result)`` reads
        counts off a successful call."""
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            if self.current_op < 0:
                return fn(*args, **kwargs)
            index = len(self.start)
            enclosing = self.open_by_name.get(nid, 0)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.current_op)
            self.outer.append(enclosing == 0)
            self.end.append(0)
            self.open_by_name[nid] = enclosing + 1
            self.stack.append(index)
            self.start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = now()
                self.stack.pop()
                self.open_by_name[nid] = enclosing
            if after is not None:
                after(self, args, result)  # inside the operation's timer: counted in the overhead
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Total (outermost spans of each name) and self time per span name,
        in seconds, plus the counts."""
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        covered = [0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += duration[i]
        total = dict.fromkeys(self.names, 0)
        own = dict.fromkeys(self.names, 0)
        for i in range(count):
            name = self.names[self.name[i]]
            if self.outer[i]:
                total[name] += duration[i]
            own[name] += duration[i] - covered[i]
        out = {}
        for name in self.names:
            out[f"{name}_s"] = total[name] / 1e9
            out[f"{name}_self_s"] = own[name] / 1e9
        out.update(self.counts)
        return out

    def write(self, path_stem: str) -> None:
        """Spans as raw arrays in ``<stem>.bin`` with a JSON header describing them."""
        fields = ("name", "parent", "op", "outer", "start", "end")
        with open(path_stem + ".bin", "wb") as handle:
            for field in fields:
                getattr(self, field).tofile(handle)
        header = {"names": self.names, "spans": len(self.start),
                  "fields": [[f, getattr(self, f).typecode] for f in fields],
                  "clock": "time.perf_counter_ns"}
        with open(path_stem + ".json", "w") as handle:
            json.dump(header, handle, indent=1)


def _count_nodes(tracer, args, _result):
    tracer.add("formula.nodes", formula_nodes(args[0]))


def _count_skeleton(tracer, _args, result):
    tracer.add("substitution.skeleton_keys", len(result[1].forward))


def _count_tableau(tracer, _args, result):
    tableau = result.tableau
    tracer.add("tableau.steps", len(tableau.steps))
    tracer.add("tableau.steps_to_verdict", steps_to_verdict(result))
    tracer.add("tableau.branches", len(tableau.branches))
    tracer.add("tableau.max_branch_len", max(len(b.triples) for b in tableau.branches))


def _count_transform(tracer, args, result):
    tracer.add("hilbert.lines_in", len(args[0].lines))
    tracer.add("hilbert.lines_out", len(result.lines))


def _count_bytes(tracer, _args, result):
    tracer.add("jsonio.bytes_out", len(result))


AFTER = {
    ("formula", "parse"): _count_nodes,
    ("substitution", "skeletonize"): _count_skeleton,
    ("tableau", "prove"): _count_tableau,
    ("hilbert", "transform_proof"): _count_transform,
    ("bench", "encode"): _count_bytes,
}


def install(tracer: Tracer, json_steps) -> None:
    """Wrap every function in :data:`SPANS` wherever a ``lericone`` module
    refers to it, and the benchmark's own ``decode``/``encode`` functions in
    the module ``json_steps``."""
    modules = [m for name, m in sys.modules.items()
               if name == "lericone" or name.startswith("lericone.")]
    for (module, function), span in SPANS.items():
        original = getattr(sys.modules[f"lericone.{module}"], function)
        traced = tracer.wrap(original, span, AFTER.get((module, function)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
    for function, span in JSON_SPANS.items():
        setattr(json_steps, function,
                tracer.wrap(getattr(json_steps, function), span,
                            AFTER.get(("bench", function))))
