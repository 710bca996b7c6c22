"""Fast smoke run: every workload at tiny sizes, untraced and traced, with every check.

    python3 perfbench/smoke.py

Each workload runs one round (two when traced) of every phase, then every
correctness check. The run fails when a check fails, an operation fails,
or the printed metrics differ from the names BENCHMARK.json lists. It also
feeds its own records to the compare command, which must call every
metric unchanged against itself.
"""

from __future__ import annotations

import io
import json
import shutil
import sys

import compare
import run
from workloads import WORKLOADS, smoke

SEED = 0


def main() -> int:
    spec = json.loads(compare.SPEC.read_text(encoding="utf-8"))
    wanted = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    out = run.ROOT / ".perfbench" / "smoke"
    shutil.rmtree(out, ignore_errors=True)
    problems = []
    for w in WORKLOADS.values():
        for trace in (0, 1):
            rec = run.execute(smoke(w), SEED, 0.0, bool(trace), out)
            if rec is None:
                return 2
            res = rec["result"]
            print(f"{w.name} trace {trace}: correct {res['correct']}, "
                  f"{res['failed']}/{res['attempted']} failed, {rec['rounds']} rounds, "
                  f"{rec['host']['wall_s']:.1f}s")
            if not res["correct"] or res["failed"]:
                problems.append(f"{w.name} trace {trace}: {rec['failures'] + rec['errors']}")
            if list(res["metrics"]) != wanted[trace]:
                problems.append(f"{w.name} trace {trace}: metrics differ from BENCHMARK.json")
    table = io.StringIO()
    compare.compare(out, out, compare.load_specs(), table)
    verdicts = [line.split()[-2] for line in table.getvalue().splitlines()
                if line.endswith("(exact)")]
    if len(verdicts) != len(WORKLOADS) * sum(map(len, wanted.values())) or \
            set(verdicts) != {"unchanged"}:
        problems.append("compare does not call a run set unchanged against itself")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
