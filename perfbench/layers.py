"""Per-layer tracing of bmgraph from the outside.

The tracer wraps public functions where the calling module binds them (the
modules import by name, so ``n_color.bmg_of_tree`` and
``two_color.bmg_of_tree`` are separate bindings and separate spans), and
methods on their class.  Wrappers are installed only around traced ops and
removed after each, so untraced ops run the program unchanged.

Every wrapped call records a span ``(name, start, end, op, parent)``; spans
stay in memory until the run ends.  Self times and counters are computed from
the spans, and a few counters from the values the wrapped calls return.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" patches the method on the class.
BINDINGS = (
    ("cli", "read_graph", "graphio.read_graph"),
    ("cli", "read_tree", "graphio.read_tree"),
    ("cli", "write_graph", "graphio.write"),
    ("cli", "write_tree", "graphio.write"),
    ("cli", "recognize_ncbmg", "n_color.recognize_ncbmg"),
    ("cli", "bmg_of_tree", "bmg.bmg_of_tree.cli"),
    ("n_color", "bmg_of_tree", "bmg.bmg_of_tree.n_color"),
    ("two_color", "bmg_of_tree", "bmg.bmg_of_tree.two_color"),
    ("triples", "bmg_of_tree", "bmg.bmg_of_tree.triples"),
    ("n_color", "connected_components", "digraph.connected_components"),
    ("n_color", "induced_subgraph", "digraph.induced_subgraph"),
    ("n_color", "subgraph_on", "digraph.subgraph_on"),
    ("two_color", "thinness_partition", "digraph.thinness_partition"),
    ("n_color", "lrt_via_hierarchy", "two_color.lrt_via_hierarchy"),
    ("two_color", "neighborhood_tables", "two_color.neighborhood_tables"),
    ("two_color", "extended_reachable_set", "two_color.extended_reachable_set"),
    ("two_color", "laminarity_witness", "two_color.laminarity_witness"),
    ("two_color", "hasse_tree", "two_color.hasse_tree"),
    ("n_color", "build_from_trees", "triples.build_from_trees"),
    ("n_color", "build", "triples.build"),
    ("n_color", "informative_triples", "triples.informative_triples"),
    ("triples", "TripleSet.union", "triples.TripleSet.union"),
    ("tree", "LeafColoredTree.__init__", "tree.LeafColoredTree"),
)

REJECT_STAGES = ("same-color-arc", "component-color-mismatch", "2cbmg-failure", "triples-inconsistent", "graph-mismatch")
# Spans whose return values feed counters; only these are kept until the op ends.
INSPECTED = frozenset(
    (
        "n_color.recognize_ncbmg",
        "two_color.lrt_via_hierarchy",
        "two_color.laminarity_witness",
        "triples.informative_triples",
        "triples.build",
        "triples.build_from_trees",
    )
)
GATES = ("bmg.bmg_of_tree.n_color", "bmg.bmg_of_tree.two_color", "bmg.bmg_of_tree.triples")


def topology_depth(topology) -> int:
    """Levels below the root of a nested-tuple topology (a lone leaf has 0)."""
    deepest = 0
    stack = [(topology, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, tuple):
            stack.extend((child, depth + 1) for child in node)
        elif depth > deepest:
            deepest = depth
    return deepest


class Tracer:
    """Spans of the traced ops of one run, and the patches that record them."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = -1
        self.results: list[tuple[str, object, object]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, results = self.spans, self.stack, self.results
        clock = time.perf_counter

        keep = name in INSPECTED

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, self.op, parent)
            if keep:
                results.append((name, args, result))
            return result

        return traced

    def install(self, op: int) -> None:
        self.op = op
        for module, attr, name in BINDINGS:
            owner = self.modules[module]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.stack.clear()

    def digest_results(self, counters: defaultdict) -> None:
        """Fold the values returned by wrapped calls into counters; runs
        between ops, so none of it is timed."""
        for name, args, result in self.results:
            stage = getattr(result, "stage", None)
            if name == "n_color.recognize_ncbmg" and not result.accepted:
                counters[f"n_color.rejects.{stage}"] += 1
                counters["bmg.gate.mismatches"] += stage == "graph-mismatch"
            elif name == "two_color.lrt_via_hierarchy":
                counters["bmg.gate.mismatches"] += stage == "graph-mismatch"
            elif name == "two_color.laminarity_witness":
                counters["two_color.rsets"] += len(args[0])
            elif name == "triples.informative_triples":
                counters["triples.informative_triples.count"] += len(result)
            elif name in ("triples.build", "triples.build_from_trees") and result is not None:
                counters["triples.build.depth"] = max(counters["triples.build.depth"], topology_depth(result))
        self.results.clear()

    def totals(self) -> tuple[dict, dict, dict]:
        """Calls, total seconds and self seconds per span name."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for span in self.spans:
            name, start, end, _, parent = span
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[sid]
        return calls, total, own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\top\tparent\n")
            for sid, (name, start, end, op, parent) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{op}\t{parent}\n")


def layer_metrics(tracer: Tracer, counters: dict, traced_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per traced op except the depth maximum."""
    calls, total, own = tracer.totals()
    per = 1.0 / max(traced_ops, 1)
    out: dict[str, tuple[float, str]] = {}

    def timed(name: str, *fields: str) -> None:
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = (calls.get(name, 0) * per, "count/op")
            elif field == "s":
                out[f"{name}.s"] = (total.get(name, 0.0) * per, "s/op")
            else:
                out[f"{name}.self_s"] = (own.get(name, 0.0) * per, "s/op")

    timed("tree.LeafColoredTree", "calls", "s")
    gate_calls = sum(calls.get(g, 0) for g in GATES)
    callers = [n for n in calls if n.startswith("bmg.bmg_of_tree.")]
    out["bmg.bmg_of_tree.calls"] = (sum(calls[n] for n in callers) * per, "count/op")
    out["bmg.bmg_of_tree.s"] = (sum(total[n] for n in callers) * per, "s/op")
    for caller in ("n_color", "two_color", "triples", "cli"):
        timed(f"bmg.bmg_of_tree.{caller}", "calls", "s")
    out["bmg.gate.useful_ratio"] = (counters.get("bmg.gate.mismatches", 0) / gate_calls if gate_calls else 0.0, "ratio")
    timed("digraph.induced_subgraph", "calls", "s")
    timed("digraph.thinness_partition", "s")
    timed("two_color.lrt_via_hierarchy", "calls", "self_s")
    timed("two_color.neighborhood_tables", "s")
    timed("two_color.extended_reachable_set", "calls", "s")
    timed("two_color.laminarity_witness", "s")
    timed("two_color.hasse_tree", "s")
    out["two_color.rsets"] = (counters.get("two_color.rsets", 0) * per, "count/op")
    timed("triples.build_from_trees", "s")
    out["triples.build.depth"] = (float(counters.get("triples.build.depth", 0)), "levels")
    timed("triples.informative_triples", "s")
    out["triples.informative_triples.count"] = (counters.get("triples.informative_triples.count", 0) * per, "count/op")
    timed("triples.TripleSet.union", "s")
    timed("triples.build", "s")
    timed("graphio.read_graph", "s")
    timed("graphio.read_tree", "s")
    timed("graphio.write", "s")
    timed("n_color.recognize_ncbmg", "s", "self_s")
    for stage in REJECT_STAGES:
        out[f"n_color.rejects.{stage}"] = (counters.get(f"n_color.rejects.{stage}", 0) * per, "count/op")
    return out
