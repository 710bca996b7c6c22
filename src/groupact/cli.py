"""Command-line front end.

Subcommands: generate, train, evaluate, ablate, attention-dump. Each takes
--config (key=value file), --out (output directory), and optional --seed
and --checkpoint overrides. Every output is written to a temp name and
renamed, and every command is deterministic under a fixed config and seed.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import os
import sys
from pathlib import Path

from .checkpoint import load_model, save_model
from .config import RunConfig, load_run_config
from .errors import ConfigError, DataError, GroupActError, ParseError, UsageError
from .evaluation import evaluate_model, write_report
from .fileio import atomic_write_text, f17, float_lines
from .model import (
    FUSION_LATE,
    FUSION_NONE,
    BranchModel,
    EarlyFusionModel,
    LateFusionModel,
    branch_inputs,
)
from .scenes import SceneConfig, SceneDataset, generate, load_dataset, save_dataset
from .seeding import INIT, rng_for
from .tensor import MODE_INFER
from .training import make_optimizer, train

TRAIN_FILE = "train.scenes"
TEST_FILE = "test.scenes"
CHECKPOINT_FILE = "model.ckpt"
ABLATION_FILE = "ablation.csv"

_ABLATION_COLUMNS = ("layers", "heads", "pe", "encoder", "fusion", "seed",
                     "group_accuracy", "action_accuracy")


def _require(cfg: RunConfig, key: str):
    value = getattr(cfg, key)
    if not value:
        raise ConfigError(f"this command needs the {key!r} config key")
    return value


def _generate_split(cfg: RunConfig):
    """(train, test) datasets: scene_count generated scenes, split at train_fraction."""
    if not 0.0 <= cfg.train_fraction <= 1.0:
        raise ConfigError(f"train_fraction must lie in [0, 1], got {cfg.train_fraction}")
    ds = generate(cfg.scene_config(), cfg.scene_count)
    n_train = int(round(cfg.scene_count * cfg.train_fraction))
    return (SceneDataset(ds.config, ds.prototypes, ds.scenes[:n_train]),
            SceneDataset(ds.config, ds.prototypes, ds.scenes[n_train:]))


def cmd_generate(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.scene_count < 1:
        raise ConfigError(f"scene_count must be >= 1 to generate, got {cfg.scene_count}")
    train_ds, test_ds = _generate_split(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(train_ds, out_dir / TRAIN_FILE)
    save_dataset(test_ds, out_dir / TEST_FILE)
    print(f"wrote {len(train_ds.scenes)} train / {len(test_ds.scenes)} test scenes to {out_dir}")
    return 0


def _build_model(cfg: RunConfig, head: SceneConfig, fusion: str, seed: int, **overrides):
    """Fresh model of any fusion kind over the dataset's branches.

    Single and early-fusion weights come from the seed's init stream; each
    late-fusion member draws from its own init/<branch> stream.
    """
    names = (cfg.branch,) if fusion == FUSION_NONE else cfg.fusion_branches or head.branch_names
    for b in names:
        if b not in head.branch_dims:
            raise ConfigError(f"branch {b!r} not in dataset (has {head.branch_names})")
    dims = {b: head.branch_dims[b] for b in names}

    def bcfg(dim):
        return cfg.branch_config(dim, head.num_actions, head.num_activities, **overrides)

    if fusion == FUSION_NONE:
        return BranchModel(cfg.branch, bcfg(dims[cfg.branch]), rng_for(seed, INIT))
    if fusion == FUSION_LATE:
        members = {b: BranchModel(b, bcfg(dim), rng_for(seed, f"{INIT}/{b}"))
                   for b, dim in dims.items()}
        return LateFusionModel(members, cfg.late_weights)
    return EarlyFusionModel(fusion.removeprefix("early-"), dims, bcfg(max(dims.values())),
                            rng_for(seed, INIT), early_pe=cfg.early_pe)


def _fit(cfg: RunConfig, model, scenes, seed: int, resume=None):
    """Train a model from _build_model, or one loaded from a checkpoint.

    resume is (checkpoint path, iteration, extras) from load_model: training
    starts at that iteration with the checkpoint's optimizer slots, if it
    has any. Late fusion trains its members one after another. Returns the
    loss curves by member name ("" for a single model) and the optimizer
    slots to save, which late fusion does not keep.
    """
    tc = cfg.train_config(seed=seed)
    late = model.kind == FUSION_LATE
    checkpoint, start, extras = resume or (None, 0, {})
    curves = {}
    for name, member in (model.models if late else {"": model}).items():
        optimizer = make_optimizer(tc, member.parameters())
        if any(key.startswith("optim/") for key in extras):
            try:
                optimizer.load_state(extras)
            except DataError as exc:
                raise ParseError(checkpoint, 0, str(exc)) from None
        curves[name] = train(member, scenes, tc, start_iteration=start, optimizer=optimizer)
    return curves, () if late else optimizer.state_tensors()


def cmd_train(cfg: RunConfig, out_dir: Path, checkpoint: Path | None = None) -> int:
    ds = load_dataset(_require(cfg, "train_data"))
    if cfg.total_iterations < 1:
        raise ConfigError("total_iterations must be >= 1 to train")
    if checkpoint is None:
        model, resume = _build_model(cfg, ds.config, cfg.fusion, cfg.seed), None
    else:
        model, start_iter, extras = load_model(checkpoint)
        if model.kind == FUSION_LATE:
            raise UsageError("resume is only supported for single-model checkpoints")
        if start_iter > cfg.total_iterations:
            raise UsageError(f"{checkpoint} is at iteration {start_iter}, past total_iterations "
                             f"{cfg.total_iterations}")
        resume = (checkpoint, start_iter, extras)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves, slots = _fit(cfg, model, ds.scenes, cfg.seed, resume)
    save_model(out_dir / CHECKPOINT_FILE, model, iteration=cfg.total_iterations,
               extra_tensors=slots)
    for name, curve in curves.items():
        curve.write_csv(out_dir / (f"loss_{name}.csv" if name else "loss.csv"))
    rows = next(iter(curves.values())).rows
    if rows:
        print(f"trained to iteration {cfg.total_iterations}, last loss {rows[-1][2]:.6f}")
    else:
        print(f"no iterations to run (already at {cfg.total_iterations})")
    return 0


def cmd_evaluate(cfg: RunConfig, out_dir: Path, checkpoint: Path) -> int:
    model, _, _ = load_model(checkpoint)
    ds = load_dataset(_require(cfg, "test_data"))
    if not ds.scenes:
        raise DataError(f"{cfg.test_data} holds no scenes to evaluate")
    report = evaluate_model(model, ds.scenes, ds.config.num_actions, ds.config.num_activities)
    write_report(report, out_dir)
    print(f"scenes {report.n_scenes}")
    print(f"group_accuracy {f17(report.group_accuracy)}")
    print(f"action_accuracy {f17(report.action_accuracy)}")
    return 0


def _ablation_axes(cfg: RunConfig):
    """Each axis sorted and without repeats, so their product is the row order."""
    return (
        tuple(sorted(set(cfg.ablate_layers))) or (cfg.num_layers,),
        tuple(sorted(set(cfg.ablate_heads))) or (cfg.num_heads,),
        tuple(sorted(set(cfg.ablate_pe))) or (cfg.use_pe,),
        tuple(sorted(set(cfg.ablate_encoder))) or (cfg.use_encoder,),
        tuple(sorted(set(cfg.ablate_fusion))) or (cfg.fusion,),
        tuple(sorted(set(cfg.ablate_seeds))) or (cfg.seed,),
    )


def cmd_ablate(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.train_data or cfg.test_data:
        train_ds = load_dataset(_require(cfg, "train_data"))
        test_ds = load_dataset(_require(cfg, "test_data"))
    else:
        # Self-contained grid: the data comes from the shared root seed, so
        # every cell (and every rerun) sees identical scenes.
        if cfg.scene_count < 2:
            raise ConfigError("ablate needs train_data/test_data or scene_count >= 2")
        train_ds, test_ds = _generate_split(cfg)
        if not (train_ds.scenes and test_ds.scenes):
            raise ConfigError("train_fraction leaves an empty split")
    if cfg.total_iterations < 1:
        raise ConfigError("total_iterations must be >= 1 to ablate")
    grid = list(itertools.product(*_ablation_axes(cfg)))
    # every cell's model is built before any trains, so a bad cell fails first
    models = [_build_model(cfg, train_ds.config, fusion, seed, num_layers=layers,
                           num_heads=heads, use_pe=pe, use_encoder=enc)
              for layers, heads, pe, enc, fusion, seed in grid]
    lines = [",".join(_ABLATION_COLUMNS)]
    for (layers, heads, pe, enc, fusion, seed), model in zip(grid, models):
        _fit(cfg, model, train_ds.scenes, seed)
        report = evaluate_model(model, test_ds.scenes, test_ds.config.num_actions,
                                test_ds.config.num_activities)
        lines.append(
            f"{layers},{heads},{'on' if pe else 'off'},{'on' if enc else 'off'},"
            f"{fusion},{seed},{f17(report.group_accuracy)},{f17(report.action_accuracy)}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / ABLATION_FILE, "\n".join(lines) + "\n")
    print(f"wrote {len(grid)} ablation rows to {out_dir / ABLATION_FILE}")
    return 0


def _attention_csv(matrix) -> str:
    header = ",".join(f"actor{c}" for c in range(matrix.shape[1]))
    return f"{header}\n{float_lines(matrix)}\n"


def _dump_record(out_dir: Path, prefix: str, scene_id: int, record) -> int:
    written = 0
    for li, layer in enumerate(record.matrices):
        for hi, matrix in enumerate(layer):
            name = f"{prefix}scene{scene_id}_layer{li}_head{hi}.csv"
            atomic_write_text(out_dir / name, _attention_csv(matrix))
            written += 1
    return written


def cmd_attention_dump(cfg: RunConfig, out_dir: Path, checkpoint: Path) -> int:
    model, _, _ = load_model(checkpoint)
    ds = load_dataset(_require(cfg, "test_data"))
    by_id = {scene.scene_id: scene for scene in ds.scenes}
    ids = cfg.scene_ids or tuple(scene.scene_id for scene in ds.scenes)
    # every refusal comes before out_dir is made, so a refused dump writes nothing
    missing = [sid for sid in ids if sid not in by_id]
    if missing:
        raise ConfigError(f"scene id {missing[0]} not in {cfg.test_data}")
    members = model.models.values() if model.kind == FUSION_LATE else (model,)
    if all(member.encoder is None for member in members):
        raise UsageError("this model has no encoder, so there is no attention to dump")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    for sid in ids:
        rec = model.forward(branch_inputs(by_id[sid]), MODE_INFER, record_attention=True).attention
        # late fusion records one entry per branch, None for a branch without an encoder
        per_branch = rec if isinstance(rec, dict) else {None: rec}
        for b, sub in per_branch.items():
            if sub is not None:
                prefix = "attention_" if b is None else f"attention_{b}_"
                written += _dump_record(out_dir, prefix, sid, sub)
    print(f"wrote {written} attention matrices to {out_dir}")
    return 0


def _check_out(out: Path) -> None:
    """Refuse out before any work: raise the OSError that making it would
    raise when it, or its nearest existing ancestor, is not a directory."""
    for path in (out, *out.parents):
        if path.exists():
            if path.is_dir():
                return
            code = errno.EEXIST if path == out else errno.ENOTDIR
            raise OSError(code, os.strerror(code), str(out))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    main() call in the process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="groupact",
        description="Generate synthetic actor scenes, train and probe actor-set transformers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("generate", "train", "evaluate", "ablate", "attention-dump"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="key=value config file")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--checkpoint", type=Path, default=None, help="model checkpoint path")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        _check_out(args.out)
        cfg = load_run_config(args.config, overrides)
        if args.command in ("evaluate", "attention-dump") and args.checkpoint is None:
            raise UsageError(f"{args.command} needs --checkpoint")
        if args.command == "generate":
            return cmd_generate(cfg, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.out, args.checkpoint)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.out, args.checkpoint)
        if args.command == "ablate":
            return cmd_ablate(cfg, args.out)
        return cmd_attention_dump(cfg, args.out, args.checkpoint)
    except GroupActError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # readers raise GroupActErrors; this is an output that cannot be made
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
