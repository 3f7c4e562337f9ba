"""End-to-end benchmark of the bmgraph command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one op in flight, one process, no threads: a closed loop that
calls ``bmgraph.cli.main`` in-process.  A recognition op is ``bmgraph lrt
--graph G --out-tree T [--route direct]``; a forward op is ``bmgraph
from-tree``.  Inputs come from ``workloads.py`` for the given seed.  Every
output is checked against ``model.py``, which shares no code with bmgraph,
once the timed window has ended.  A once-per-run instance runs before the
window in a child process; its outcome is printed on a line of its own and
stays out of ``attempted``, ``failed`` and every metric.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` each op runs once untraced and once
traced and the JSON object holds the per-layer metrics instead.  Lines before
it give the same numbers for people, with the tail's percentile and sample
count.  The program is built from ``src/`` of the checkout around this
directory; without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

import model
from layers import Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / ".runs"
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 9
TAIL_BEYOND = 10
ONCE_TIMEOUT_S = 100
SETUP_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import bmgraph.cli\n"
    "bmgraph.cli.make_parser()\n"
    "print(time.perf_counter() - t)\n"
)
# The op of ``execute`` in a fresh interpreter; prints ``[exit code, exception type]``.
ONCE_PROBE = (
    "import contextlib, io, json, sys\n"
    "from bmgraph import cli\n"
    "rc, error = None, None\n"
    "try:\n"
    "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "        rc = cli.main(sys.argv[1:])\n"
    "except Exception as exc:\n"
    "    error = type(exc).__name__\n"
    "print(json.dumps([rc, error]))\n"
)
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
# Timings are scaled to a fixed machine speed: the one at which the reference
# loop takes REF_S seconds, about the median speed of the 2-vCPU virtual
# machine the benchmark was built on.  Its speed there swings by 30% within
# seconds and for minutes at a time, and a reference loop timed just before
# each op moves with it; scaled timings vary about a third as much as raw ones.
REF_S = 0.005
REF_ITERATIONS = 20_000


def reference_scale() -> float:
    """REF_S over the time of a fixed pure-Python loop of dict and set work,
    as run right now: a timing times this is in seconds at the reference speed."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    seen = set()
    for i in range(REF_ITERATIONS):
        key = i * 7919 % 1009
        counts[key] = counts.get(key, 0) + 1
        seen.add(key ^ i)
    return REF_S / (time.perf_counter() - start)


def setup_seconds() -> tuple[float, float]:
    """Fresh interpreter: ``import bmgraph`` until an op could be issued;
    with the reference scale measured just before."""
    scale = reference_scale()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], env=CHILD_ENV, capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout.strip()), scale


class Op(NamedTuple):
    """One attempted op: its latency, what it left behind, whether it was traced and how it failed.

    ``error`` is the type of the exception the op raised; ``output`` holds the
    bytes it wrote (the digest of a forward graph, the Newick and colour files
    of a tree), or None if it wrote nothing."""

    inst: dict
    seconds: float
    rc: int | None
    error: str | None
    output: object
    traced: bool
    failure: str | None = None  # set by Checker once the timed window has ended


class Checker:
    """Checks each output against the reference model; an accepted tree is
    re-expanded once per distinct output and remembered by digest."""

    def __init__(self):
        self.verified: set[tuple[str, str]] = set()

    def failure(self, op: Op) -> str | None:
        inst = op.inst
        if op.error is not None:
            return op.error
        if inst["op"] == "from-tree":
            if op.rc != 0:
                return "wrong-exit-code"
            return None if op.output == inst["expect_digest"] else "wrong-output"
        if inst["expect"] == "reject":
            return None if op.rc == 1 and op.output is None else "wrong-verdict"
        if op.rc != 0:
            return "wrong-verdict"
        if op.output is None:
            return "wrong-output"
        key = (inst["id"], model.digest(b"\0".join(op.output)))
        if key not in self.verified:
            try:
                newick, colors = (data.decode("utf-8") for data in op.output)
                tree = model.parse_tree(newick, colors)
            except (UnicodeDecodeError, ValueError, IndexError, KeyError):  # unparsable output
                return "wrong-output"
            if model.digest(model.graph_text(tree.colors(), model.best_matches(tree))) != inst["input"]:
                return "wrong-output"
            self.verified.add(key)
        return None


def _output(inst: dict, out: Path):
    """What an op wrote, read right after it, so that checking can wait until the timed window ends."""
    if not out.exists():
        return None
    if inst["op"] == "from-tree":
        return model.digest(out.read_bytes())
    colors = Path(str(out) + ".colors")
    return out.read_bytes(), colors.read_bytes() if colors.exists() else b""


def execute(cli, inst: dict, route: str, work: Path, traced: bool) -> Op:
    """Run one op in-process, or in a child process for an instance marked ``once``."""
    stem = work / inst["id"]
    if inst["op"] == "lrt":
        out = Path(str(stem) + ".out.nwk")
        argv = ["lrt", "--graph", str(stem) + ".graph", "--out-tree", str(out), "--route", route]
    else:
        out = Path(str(stem) + ".out.graph")
        argv = ["from-tree", "--tree", str(stem) + ".nwk", "--out", str(out)]
    for stale in (out, Path(str(out) + ".colors")):
        stale.unlink(missing_ok=True)
    rc, error = None, None
    start = time.perf_counter()
    if inst.get("once"):
        try:
            done = subprocess.run(
                [sys.executable, "-c", ONCE_PROBE, *argv],
                env=CHILD_ENV, capture_output=True, text=True, timeout=ONCE_TIMEOUT_S,
            )
            lines = done.stdout.splitlines()
            rc, error = json.loads(lines[-1]) if lines else (None, f"exit-{done.returncode}")
        except subprocess.TimeoutExpired:
            error = "TimeoutExpired"
    else:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except Exception as exc:  # each op's failure is counted, never fatal to the run
            error = type(exc).__name__
    seconds = time.perf_counter() - start
    return Op(inst, seconds, rc, error, _output(inst, out), traced)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(
    timed: list[Op], segments: list[tuple[float, float]], setup: list[tuple[float, float]]
) -> tuple[dict, list[str]]:
    """Latencies and throughput come from the ops of the timed window, one
    ``(seconds, scale)`` segment per op, each op's reference scale applied to
    its own time."""
    scales = [scale for _, scale in segments]
    latencies = [op.seconds * scale for op, scale in zip(timed, scales)]
    window = sum(seconds * scale for seconds, scale in segments)
    correct = sum(1 for op in timed if op.failure is None)
    value, pct, n = tail(latencies)
    metrics = {
        "ops_per_s": (correct / window, "ops/s"),
        "op_s.p50": (statistics.median(latencies), "s"),
        "op_s.tail": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(seconds * scale for seconds, scale in setup), "s"),
    }
    notes = [
        f"op_s.tail is p{pct:.1f} over {n} samples",
        f"failed_frac {(len(timed) - correct) / len(timed):.4f} ({len(timed) - correct} of {len(timed)})",
        f"unscaled: ops_per_s {correct / sum(seconds for seconds, _ in segments):.6g} ops/s,"
        f" op_s.p50 {statistics.median(op.seconds for op in timed):.6g} s,"
        f" setup_s {statistics.median(seconds for seconds, _ in setup):.6g} s;"
        f" reference scale median {statistics.median(scales):.4f}",
    ]
    return metrics, notes


def expected_entry(workload: str, seed: int) -> dict | None:
    if not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bmgraph" / "cli.py").is_file():
        print(f"error: no bmgraph sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    route = spec.get("route")
    tag = f"{args.workload}-s{args.seed}"
    work = RUNS / f"{tag}-p{os.getpid()}"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(work)],
            check=True, timeout=170,
        )
        instances = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        inputs = model.digest("".join(inst["input"] for inst in instances))
        setup = [] if args.trace else [setup_seconds() for _ in range(SETUP_REPEATS)]

        sys.path.insert(0, str(SRC))
        from bmgraph import cli, n_color, tree, triples, two_color

        tracer = Tracer({"cli": cli, "n_color": n_color, "two_color": two_color, "triples": triples, "tree": tree})
        counters: defaultdict = defaultdict(int)
        ops: list[Op] = []

        def traced_op(inst: dict) -> None:
            tracer.install(len(ops))
            try:
                ops.append(execute(cli, inst, route, work, traced=True))
            finally:
                tracer.remove()
            tracer.digest_results(counters)

        def attempt(inst: dict, k: int) -> None:
            if not args.trace:
                ops.append(execute(cli, inst, route, work, traced=False))
            else:  # alternate which of the pair goes first, so neither gets the warm caches
                if k % 2:
                    traced_op(inst)
                ops.append(execute(cli, inst, route, work, traced=False))
                if not k % 2:
                    traced_op(inst)

        # A once-per-run instance runs untraced in a child process, before the
        # timed window.  Its outcome is printed on a line of its own; it is not
        # an attempted op, and its latency and memory stay out of every metric.
        # Only an outcome other than ok or its known failure makes the run incorrect.
        once = [execute(cli, inst, route, work, traced=False) for inst in instances if inst.get("once")]
        cycle = [inst for inst in instances if not inst.get("once")]
        segments: list[tuple[float, float]] = []
        start = time.perf_counter()
        k = 0
        while time.perf_counter() - start < args.seconds:
            scale = reference_scale()
            began = time.perf_counter()
            attempt(cycle[k % len(cycle)], k)
            segments.append((time.perf_counter() - began, scale))
            k += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checker = Checker()
    ops = [op._replace(failure=checker.failure(op)) for op in ops]
    once = [op._replace(failure=checker.failure(op)) for op in once]
    failures = Counter(op.failure for op in ops if op.failure is not None)
    unexpected = [op for op in ops + once if op.failure is not None and op.failure != op.inst.get("known_failure")]
    correct = not unexpected
    recorded = expected_entry(args.workload, args.seed)
    verdicts = "".join(inst["expect"][0] for inst in instances)
    if recorded is not None and (recorded["inputs"], recorded["verdicts"]) != (inputs, verdicts):
        print(f"error: inputs or verdicts differ from {EXPECTED.name} for this seed", file=sys.stderr)
        correct = False

    print(f"workload {args.workload} seed {args.seed} inputs {inputs} ({len(instances)} instances)")
    for op in once:
        known = " (known failure)" if op.failure is not None and op.failure == op.inst.get("known_failure") else ""
        print(f"once {op.inst['id']}: {op.seconds:.3f} s, {op.failure or 'ok'}{known}; not an attempted op, in no metric")
    for name, count in sorted(failures.items()):
        print(f"failures {name}: {count}")
    for op in unexpected[:5]:
        print(f"unexpected failure {op.failure} on {op.inst['id']}", file=sys.stderr)

    if args.trace:
        traced = [op.seconds for op in ops if op.traced]
        plain = [op.seconds for op in ops if not op.traced]
        metrics = layer_metrics(tracer, counters, len(traced))
        metrics["trace.op_s.p50"] = (statistics.median(traced), "s")
        metrics["trace.overhead.op_s.p50"] = (statistics.median(traced) - statistics.median(plain), "s")
        metrics["trace.overhead.total"] = (sum(traced) / sum(plain) - 1, "ratio")
        RUNS.mkdir(exist_ok=True)
        tracer.write(RUNS / f"spans-{tag}.tsv")
    else:
        metrics, notes = end_to_end(ops, segments, setup)
        if once:  # the failed share with the known failure counted, for people; the JSON line leaves it out
            failed = sum(failures.values()) + sum(1 for op in once if op.failure is not None)
            notes.append(f"failed_frac with the once-per-run instance {failed / (len(ops) + len(once)):.4f}"
                         f" ({failed} of {len(ops) + len(once)})")
        for note in notes:
            print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
