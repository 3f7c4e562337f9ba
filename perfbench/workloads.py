"""Seeded inputs of the benchmark workloads, written as bmgraph input files.

    python3 perfbench/workloads.py --workload NAME --seed N --out DIR

writes every instance of the workload into DIR, plus ``manifest.json`` with
each instance's expected outcome and the digest of its input bytes.  It runs
in a process of its own, so generating inputs adds nothing to the peak RSS of
the process that runs bmgraph.  Verdicts are known by construction: positives
are graphs of trees, and every negative carries a certificate from
:func:`model.certified_flip`.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import model

CONTRACTION = 0.2

# Recognition workloads run rounds of ``positives`` positives of ``size``
# leaves, the last followed by a certified negative of the same tree; a
# ``once_size`` instance runs once per run, before the timed window and in a
# child process.  Each workload's latencies must have one dominant mode: where
# negatives or shapes cost far less than the rest, they are kept to a third of
# the ops, or the median would fall in the sparse gap between two equal groups
# and jump from run to run.
WORKLOADS = {
    "yule-many-colors": {"op": "lrt", "route": "pairwise", "tree": "yule", "colors": 20, "size": 250, "positives": 2, "rounds": 16},
    "caterpillar-2color": {"op": "lrt", "route": "pairwise", "tree": "caterpillar", "colors": 2, "size": 250, "positives": 2, "rounds": 8, "once_size": 1100},
    "yule-direct": {"op": "lrt", "route": "direct", "tree": "yule", "colors": 4, "size": 100, "positives": 1, "rounds": 80},
    "forward": {"op": "from-tree", "shapes": ((1000, 20), (1000, 20), (2500, 4)), "rounds": 8},
}

# Failures of the program that are known at the commit that introduced the
# benchmark, on once-per-run instances.  They are reported but do not make a
# run incorrect.
KNOWN_FAILURES = {("caterpillar-2color", 1100): "RecursionError"}


def _recognition_tree(rng: random.Random, spec: dict, n: int) -> model.Tree:
    if spec["tree"] == "caterpillar":
        return model.caterpillar(rng, n)
    while True:  # one weakly connected component, so every op recognises all n leaves
        tree = model.yule_tree(rng, n, spec["colors"], CONTRACTION)
        if model.root_child_lacks_color(tree):
            return tree


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return model.digest(text)


def generate(name: str, seed: int, out: Path) -> list[dict]:
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    out.mkdir(parents=True, exist_ok=True)
    instances: list[dict] = []

    def add(kind: str, n: int, k: int, **fields) -> dict:
        inst = {"id": f"{len(instances):03d}-{kind}{n}x{k}", "op": spec["op"], "n": n, **fields}
        instances.append(inst)
        return inst

    if spec["op"] == "from-tree":
        for _ in range(spec["rounds"]):
            for n, k in spec["shapes"]:
                tree = model.yule_tree(rng, n, k, CONTRACTION)
                colors = tree.colors()
                inst = add("yule", n, k, expect="graph")
                stem = out / inst["id"]
                inst["input"] = _write(stem.with_suffix(".nwk"), model.newick(tree)) + _write(
                    Path(str(stem) + ".nwk.colors"), model.color_map_text(colors)
                )
                inst["expect_digest"] = model.digest(model.graph_text(colors, model.best_matches(tree)))
        return instances

    k, n = spec["colors"], spec["size"]
    if "once_size" in spec:
        m = spec["once_size"]
        tree = _recognition_tree(rng, spec, m)
        inst = add(spec["tree"], m, k, expect="accept", once=True, known_failure=KNOWN_FAILURES.get((name, m)))
        inst["input"] = _write(out / f"{inst['id']}.graph", model.graph_text(tree.colors(), model.best_matches(tree)))
    for _ in range(spec["rounds"]):
        for flipped in [False] * (spec["positives"] - 1) + [True]:
            while True:
                tree = _recognition_tree(rng, spec, n)
                colors = tree.colors()
                nbrs = model.best_matches(tree)
                flip = model.certified_flip(rng, colors, nbrs) if flipped else None
                if flip is not None or not flipped:
                    break
            pos = add(spec["tree"], n, k, expect="accept")
            pos["input"] = _write(out / f"{pos['id']}.graph", model.graph_text(colors, nbrs))
            if flipped:
                neg = add(spec["tree"], n, k, expect="reject", flip=list(flip))
                neg["input"] = _write(
                    out / f"{neg['id']}.graph", model.graph_text(colors, model.apply_flip(nbrs, colors, flip))
                )
    return instances


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    instances = generate(args.workload, args.seed, out)
    (out / "manifest.json").write_text(json.dumps(instances, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
