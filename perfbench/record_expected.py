"""Record the expected verdicts of the benchmark inputs for a range of seeds.

    python3 perfbench/record_expected.py --seeds 1-10

For every workload and seed this generates the inputs, runs each instance
once through the workload's route and, where that is affordable, once through
the other route, and stores in ``expected.json``:

- ``inputs``: the digest over all input files, so a later run on the same
  seed is known to measure identical bytes;
- ``verdicts``: one letter per instance, ``a`` accept, ``r`` reject, ``g``
  forward graph; ``run.py`` refuses a run whose inputs or verdicts differ;
- ``observed``: what the program did, ``=`` as expected, otherwise the
  failure (exception type or ``wrong-...``);
- ``other_route``: the same for the other route, ``-`` where skipped.

Verdicts are proven by the generator (see ``workloads.py``); this file pins
them and records how the program at the recording commit met them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time

import model
from run import EXPECTED, HERE, RUNS, SRC, Checker, execute
from workloads import WORKLOADS

OTHER_ROUTE = {"pairwise": "direct", "direct": "pairwise"}
# How many instances of the timed cycle the other route checks, from the
# front (None: all).  The direct route takes seconds per op on 250 x 20 Yule
# trees and about half a minute on 250-leaf caterpillars.
OTHER_ROUTE_FIRST = {"caterpillar-2color": 0, "yule-many-colors": 4, "yule-direct": None}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="one seed or an inclusive range such as 1-10")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    from bmgraph import cli

    table = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.is_file() else {}
    for name in sorted(WORKLOADS):
        spec = WORKLOADS[name]
        for seed in _seeds(args.seeds):
            work = RUNS / f"record-{name}-s{seed}"
            started = time.perf_counter()
            try:
                subprocess.run(
                    [sys.executable, str(HERE / "workloads.py"), "--workload", name, "--seed", str(seed), "--out", str(work)],
                    check=True,
                )
                instances = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
                route = spec.get("route")
                checked = [inst for inst in instances if not inst.get("once")][: OTHER_ROUTE_FIRST.get(name)]
                observed, other = [], []
                for inst in instances:
                    op = execute(cli, inst, route, work, traced=False)
                    observed.append(Checker().failure(op) or "=")
                    if route and inst in checked:
                        op = execute(cli, inst, OTHER_ROUTE[route], work, traced=False)
                        other.append(Checker().failure(op) or "=")
                    else:
                        other.append("-")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            table.setdefault(name, {})[str(seed)] = {
                "inputs": model.digest("".join(inst["input"] for inst in instances)),
                "verdicts": "".join(inst["expect"][0] for inst in instances),
                "observed": " ".join(observed),
                "other_route": " ".join(other),
            }
            print(f"{name} seed {seed}: {time.perf_counter() - started:.1f} s", flush=True)
            EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
