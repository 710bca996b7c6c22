"""Benchmark entry point: one workload, one process, one thread.

    python3 perfbench/run.py --workload train-quickstart --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Each run also writes a
record (the result plus process CPU time, host steal time and library
versions) under `--out`, which `compare.py` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_OUT = ROOT / ".perfbench" / "runs"


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=DEFAULT_OUT, help="directory for run records")
    return p.parse_args(argv)


def _steal_s() -> float | None:
    """Host steal time so far, from the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def execute(w, seed: int, seconds: float, trace: bool, out: Path) -> dict | None:
    """Run one workload and write its record; None when there is no package source."""
    if not (SRC / "groupact" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return None
    # One thread everywhere, set before numpy loads its BLAS.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    wall0, cpu0, steal0 = time.perf_counter(), time.process_time(), _steal_s()
    import harness  # imports numpy and every groupact module

    record = harness.run(w, seed, seconds, trace, ROOT / ".perfbench")
    steal1 = _steal_s()
    record["host"] = {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "steal_s": None if steal0 is None else steal1 - steal0,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": harness.np.__version__,
        "blas_threads": _blas_threads(),
    }
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{w.name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in record["failures"] + record["errors"]:
        print(f"{w.name}: {line}", file=sys.stderr)
    return record


def main(argv=None) -> int:
    from workloads import WORKLOADS

    args = parse_args(argv)
    record = execute(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.out)
    if record is None:
        return 2
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
