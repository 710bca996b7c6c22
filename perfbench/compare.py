"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the JSON records `run.py` writes (its `--out`). Runs
pair up by workload, trace flag and seed. For every metric the table gives
each side's median and quartiles, the share of pairs the change wins (ties
count for neither) and a verdict:

- better: over at least ten pairs, the change wins at least 9 in 10 and the
  medians differ by more than the base's own quartile spread;
- worse: the change's median is worse than the base's by more than the
  metric's bound (per-layer metrics, which have no bound: over at least ten
  pairs it loses 9 in 10 by more than the base's spread);
- unresolved: the spread of either side is wider than the bound, unless
  every run of the change beats every run of the base;
- unchanged: otherwise.

Below each workload it prints the runs' failed/attempted operations, CPU
over wall time and host steal time, so a noisy set can be explained.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load_runs(directory: Path) -> dict:
    """(workload, trace) -> {seed: record}; the newest record wins a repeated seed."""
    out = defaultdict(dict)
    for path in sorted(directory.glob("*.json"), key=lambda p: p.stat().st_mtime):
        rec = json.loads(path.read_text(encoding="utf-8"))
        out[(rec["workload"], rec["trace"])][rec["seed"]] = rec
    return out


def load_specs() -> dict:
    """metric -> (better, bound or None), from BENCHMARK.json."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, change, pairs, better: str, bound):
    """(win share, verdict) for one metric; base/change are value lists."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    losses = sum(sign * (c - b) < 0 for b, c in pairs)
    share = wins / len(pairs) if pairs else float("nan")
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (cmed - bmed)  # > 0 when the change is better
    spread = max(abs(bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 abs(cq3 - cq1) / abs(cmed) if cmed else 0.0)
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(pairs) and gain > bq3 - bq1:
        return share, "better"
    if bound is None:
        if enough and losses >= WIN_SHARE * len(pairs) and -gain > bq3 - bq1:
            return share, "worse"
        return share, "unchanged" if abs(gain) <= max(bq3 - bq1, cq3 - cq1) else "unresolved"
    if bmed and -gain / abs(bmed) > bound:
        return share, "worse"
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if spread > bound and not all_better:
        return share, "unresolved"
    return share, "unchanged"


def _fmt(x):
    return f"{x:.4g}"


def compare(base_dir: Path, change_dir: Path, specs: dict, out=sys.stdout) -> None:
    base, change = load_runs(base_dir), load_runs(change_dir)
    for key in sorted(set(base) | set(change)):
        workload, trace = key
        b_runs, c_runs = base.get(key, {}), change.get(key, {})
        print(f"\n== {workload} (trace {trace}): {len(b_runs)} base runs, "
              f"{len(c_runs)} change runs", file=out)
        if not b_runs or not c_runs:
            continue
        print(f"{'metric':42} {'base q1/med/q3':>30} {'change q1/med/q3':>30} "
              f"{'wins':>5}  verdict", file=out)
        seeds = sorted(set(b_runs) & set(c_runs))
        names = list(next(iter(b_runs.values()))["result"]["metrics"])
        for name in names:
            def values(runs):
                return [r["result"]["metrics"][name]["value"] for r in runs.values()]

            bv, cv = values(b_runs), values(c_runs)
            pairs = [(b_runs[s]["result"]["metrics"][name]["value"],
                      c_runs[s]["result"]["metrics"][name]["value"]) for s in seeds]
            better, bound = specs.get(name, ("lower", None))
            share, v = verdict(bv, cv, pairs, better, bound)
            if pairs and all(b == c for b, c in pairs):
                v += " (exact)"
            bq, cq = quartiles(bv), quartiles(cv)
            print(f"{name:42} {'/'.join(map(_fmt, bq)):>30} {'/'.join(map(_fmt, cq)):>30} "
                  f"{share:>5.2f}  {v}", file=out)
        for label, runs in (("base", b_runs), ("change", c_runs)):
            recs = list(runs.values())
            att = sum(r["result"]["attempted"] for r in recs)
            fail = sum(r["result"]["failed"] for r in recs)
            bad = sum(not r["result"]["correct"] for r in recs)
            cpu = statistics.median(r["host"]["cpu_s"] / r["host"]["wall_s"] for r in recs)
            steal = [r["host"]["steal_s"] for r in recs if r["host"]["steal_s"] is not None]
            print(f"  {label}: failed {fail}/{att} ops, {bad} incorrect runs, median cpu/wall "
                  f"{cpu:.3f}, host steal {sum(steal):.2f}s total, "
                  f"{max(steal, default=0.0):.2f}s max", file=out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path, help="directory of base run records")
    p.add_argument("change", type=Path, help="directory of change run records")
    args = p.parse_args(argv)
    compare(args.base, args.change, load_specs())
    return 0


if __name__ == "__main__":
    sys.exit(main())
