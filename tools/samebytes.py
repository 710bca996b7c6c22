"""Check that this checkout's CLI writes the same bytes as another revision's.

    python tools/samebytes.py BASE_REV [--work DIR]

BASE_REV is exported with `git archive` into a scratch directory. Both trees
then run one fixed list of CLI scenarios, each tree from its own `src/`:

- the README quick start at a small size: generate, train straight to 30
  iterations, train to 20 and resume to 30, evaluate, attention-dump and a
  two-cell ablate grid;
- each benchmark workload config (`perfbench/workloads.py`) at its CLI round
  trip's size: generate, train, evaluate, attention-dump and a two-cell
  ablate grid;
- the ragged fusion workload config with a test split of 120 scenes of 3-16
  actors: generate, train and evaluate, so that evaluation runs more than
  one packed chunk of scenes;
- the quick start with 12 scenes of 300-600 actors: generate only, so that
  each dataset record spans several 32 KiB write blocks and every scene's
  features are larger than one block;
- the late fusion workload config with scenes of 1-3 actors: generate,
  train, evaluate and attention-dump, so that one-actor scenes put a
  one-row matrix product into each member group's pass;
- the late fusion workload config with 2 heads and 2 layers: generate,
  train, evaluate and attention-dump, so that the per-head weight lists of
  every layer of the grouped pass are compared;
- the quick start with two branches under early-concat fusion, position
  codes added after fusing: generate, train, evaluate, attention-dump, and
  an ablate grid over fusion (early-sum, early-concat, late), position
  codes and the encoder, with position codes added per branch;
- the quick start with position codes added before the embedding:
  generate, train, evaluate and attention-dump;
- the ragged fusion workload config with 45 train scenes: generate, train
  straight to 6 iterations, and train to 3 then resume to 6. Batches of 16
  make the resume skip one whole epoch and part of the next, over scenes
  of 3-16 actors, so both the set-by-set dropout masks and the resumed
  run's jump past the draws it skips are compared.

Every output file is compared byte for byte. The script prints the numpy
version and the BLAS kernel it ran on, since another kernel rounds
differently, then one line per file that differs or exists in one tree
only, and exits 1 on any difference. A differing `*.scenes` file is also
loaded by each tree's own loader, and the line says whether the two
datasets are equal. Reruns are byte-identical on one numpy build and one
BLAS kernel only, so both trees run here, in one environment.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

QUICKSTART = """
rule = key-actor-side
num_actions = 9
num_activities = 8
n_actors = 12
branches = static:16
noise = 0.5
scene_count = 200
train_fraction = 0.8
d_model = 32
d_ff = 64
dropout = 0.1
use_pe = on
optimizer = adam
lr_schedule = 0:0.01
batch_size = 16
seed = 0
"""

CLI = "import sys; from groupact.cli import main; sys.exit(main())"

# Prints a digest of each dataset file as the tree's own loader reads it.
DIGEST = """
import hashlib, sys
import numpy as np
from groupact.scenes import load_dataset
for path in sys.argv[1:]:
    ds = load_dataset(path)
    h = hashlib.sha256(repr(ds.config).encode())
    for b in sorted(ds.prototypes):
        h.update(b.encode() + np.ascontiguousarray(ds.prototypes[b], "<f8").tobytes())
    for s in ds.scenes:
        h.update(repr((s.scene_id, s.activity, sorted(s.features))).encode())
        h.update(np.asarray(s.actions, "<i8").tobytes())
        for a in [s.centers] + [s.features[b] for b in sorted(s.features)]:
            h.update(np.ascontiguousarray(a, "<f8").tobytes())
    print(h.hexdigest())
"""


def _set(config: str, **values) -> str:
    """config text with the line of each key set to its value; the key must be there."""
    for key, value in values.items():
        config, found = re.subn(rf"^{key} = .*$", f"{key} = {value}", config, flags=re.M)
        if found != 1:
            raise ValueError(f"config has {found} lines for {key!r}")
    return config


def _scenarios():
    """(name, config text, [(command, extra config lines, checkpoint run or None, out)])."""
    data = "train_data = data/train.scenes\ntest_data = data/test.scenes\n"
    grid = "ablate_layers = 1, 2\n"
    straight = "total_iterations = 30\n"
    out = [("quickstart", QUICKSTART + data, [
        ("generate", "", None, "data"),
        ("train", straight, None, "run"),
        ("train", "total_iterations = 20\n", None, "half"),
        ("train", straight, "half", "resumed"),
        ("evaluate", "", "run", "run/eval"),
        ("attention-dump", "", "run", "attention"),
        ("ablate", straight + grid, None, "grid"),
    ])]
    for w in WORKLOADS.values():
        cfg = (w.config + data + f"scene_count = {w.cli_scenes}\ntrain_fraction = 0.75\n"
               f"total_iterations = {w.cli_iterations}\nseed = 0\n")
        out.append((w.name, cfg, [
            ("generate", "", None, "data"),
            ("train", "", None, "run"),
            ("evaluate", "", "run", "run/eval"),
            ("attention-dump", "", "run", "attention"),
            ("ablate", grid, None, "grid"),
        ]))
    ragged = WORKLOADS["train-ragged-fusion"].config
    out.append(("ragged-eval", ragged + data + "scene_count = 480\ntrain_fraction = 0.75\n"
                "total_iterations = 4\nseed = 1\n", [
                    ("generate", "", None, "data"),
                    ("train", "", None, "run"),
                    ("evaluate", "", "run", "run/eval"),
                ]))
    out.append(("large-scenes", _set(QUICKSTART, n_actors="300-600", scene_count="12") + data,
                [("generate", "", None, "data")]))
    late = WORKLOADS["io-late-fusion"]
    late_run = (data + f"scene_count = {late.cli_scenes}\ntrain_fraction = 0.75\n"
                f"total_iterations = {late.cli_iterations}\nseed = 0\n")
    late_steps = [
        ("generate", "", None, "data"),
        ("train", "", None, "run"),
        ("evaluate", "", "run", "run/eval"),
        ("attention-dump", "", "run", "attention"),
    ]
    out.append(("late-tiny", _set(late.config, n_actors="1-3") + late_run, late_steps))
    out.append(("late-heads", _set(late.config, num_heads="2", num_layers="2") + late_run,
                late_steps))
    small = _set(QUICKSTART, scene_count="60") + data
    two = _set(small, branches="static:16, dynamic-rgb:12") + "fusion = early-concat\n"
    out.append(("early-fusion", two, [
        ("generate", "", None, "data"),
        ("train", "total_iterations = 8\n", None, "run"),
        ("evaluate", "", "run", "run/eval"),
        ("attention-dump", "", "run", "attention"),
        ("ablate", "total_iterations = 4\nearly_pe = per-branch\n"
         "ablate_fusion = early-sum, early-concat, late\nablate_pe = on, off\n"
         "ablate_encoder = on, off\n", None, "grid"),
    ]))
    out.append(("pre-embed", small + "pe_stage = pre-embed\n", [
        ("generate", "", None, "data"),
        ("train", "total_iterations = 8\n", None, "run"),
        ("evaluate", "", "run", "run/eval"),
        ("attention-dump", "", "run", "attention"),
    ]))
    out.append(("ragged-resume", ragged + data + "scene_count = 60\ntrain_fraction = 0.75\n"
                "seed = 2\n", [
                    ("generate", "", None, "data"),
                    ("train", "total_iterations = 6\n", None, "run"),
                    ("train", "total_iterations = 3\n", None, "half"),
                    ("train", "total_iterations = 6\n", "half", "resumed"),
                ]))
    return out


def _run_tree(src: Path, work: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    for name, cfg, steps in _scenarios():
        scenario = work / name
        scenario.mkdir(parents=True)
        for i, (command, extra, checkpoint, out) in enumerate(steps):
            # configs sit beside the outputs, not among them
            cfg_path = work / f"{name}.{i}.cfg"
            cfg_path.write_text(cfg + extra, encoding="utf-8")
            argv = [sys.executable, "-c", CLI, command, "--config", str(cfg_path), "--out", out]
            if checkpoint:
                argv += ["--checkpoint", f"{checkpoint}/model.ckpt"]
            done = subprocess.run(argv, cwd=scenario, env=env, capture_output=True, text=True)
            if done.returncode:
                sys.exit(f"{src}: {name}: {command} failed:\n{done.stderr}")


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*"))
            if p.is_file() and p.suffix != ".cfg"}


def _digests(src: Path, paths) -> list:
    done = subprocess.run([sys.executable, "-c", DIGEST, *map(str, paths)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    return done.stdout.split() if done.returncode == 0 else [None] * len(paths)


def _environment() -> str:
    done = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True,
        text=True, env=dict(os.environ, OPENBLAS_VERBOSE="2"))
    kernel = next((line.split(":", 1)[1].strip() for line in done.stderr.splitlines()
                   if line.startswith("Core:")), "unknown (not OpenBLAS, or it printed none)")
    return f"numpy {done.stdout.strip()}, BLAS kernel {kernel}"


def _export(rev: str, dest: Path) -> Path:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev", help="git revision to compare this checkout with")
    parser.add_argument("--work", type=Path, help="keep the trees' outputs in this new directory")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        work = args.work or Path(scratch)
        base_src = _export(args.base_rev, Path(scratch) / "base-tree")
        print(_environment())
        trees = {args.base_rev: (base_src, work / "base"), "this tree": (ROOT / "src", work / "this")}
        for src, out in trees.values():
            _run_tree(src, out)
        base, this = (_files(out) for _, out in trees.values())
        differ = [rel for rel in sorted(base.keys() & this.keys())
                  if base[rel].read_bytes() != this[rel].read_bytes()]
        datasets = [rel for rel in differ if rel.endswith(".scenes")]
        loaded = dict(zip(datasets, zip(_digests(base_src, [base[r] for r in datasets]),
                                        _digests(ROOT / "src", [this[r] for r in datasets]))))
        for rel in differ:
            note = ""
            if rel in loaded:
                a, b = loaded[rel]
                note = (" (loads to an equal dataset)" if a and a == b else
                        " (loads to another dataset)" if a and b else " (a loader failed)")
            print(f"differs: {rel}{note}")
        for rel in sorted(base.keys() - this.keys()):
            print(f"only in {args.base_rev}: {rel}")
        for rel in sorted(this.keys() - base.keys()):
            print(f"only in this tree: {rel}")
        bad = len(differ) + len(base.keys() ^ this.keys())
        print(f"{'same' if not bad else 'different'}: {bad} of "
              f"{len(base.keys() | this.keys())} files differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
