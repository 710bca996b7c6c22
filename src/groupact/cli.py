"""Command-line front end.

Subcommands: generate, train, evaluate, ablate, attention-dump. Each takes
--config (key=value file), --out (output directory), and optional --seed
and --checkpoint overrides. Every output is written to a temp name and
renamed, and every command is deterministic under a fixed config and seed.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from .checkpoint import load_model, save_model
from .config import RunConfig, load_run_config
from .errors import ConfigError, DataError, GroupActError, UsageError
from .evaluation import evaluate_model, write_report
from .fileio import atomic_write_text, f17, float_lines
from .model import (
    FUSION_EARLY_CONCAT,
    FUSION_EARLY_SUM,
    FUSION_LATE,
    FUSION_NONE,
    BranchModel,
    EarlyFusionModel,
    LateFusionModel,
    branch_inputs,
)
from .scenes import SceneDataset, generate, load_dataset, save_dataset
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


def _split_counts(count: int, fraction: float):
    n_train = int(round(count * fraction))
    return min(max(n_train, 0), count)


def cmd_generate(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.scene_count < 1:
        raise ConfigError(f"scene_count must be >= 1 to generate, got {cfg.scene_count}")
    if not 0.0 <= cfg.train_fraction <= 1.0:
        raise ConfigError(f"train_fraction must lie in [0, 1], got {cfg.train_fraction}")
    ds = generate(cfg.scene_config(), cfg.scene_count)
    n_train = _split_counts(cfg.scene_count, cfg.train_fraction)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_ds = SceneDataset(ds.config, ds.prototypes, ds.scenes[:n_train])
    test_ds = SceneDataset(ds.config, ds.prototypes, ds.scenes[n_train:])
    save_dataset(train_ds, out_dir / TRAIN_FILE)
    save_dataset(test_ds, out_dir / TEST_FILE)
    print(f"wrote {n_train} train / {cfg.scene_count - n_train} test scenes to {out_dir}")
    return 0


def _dataset_branches(cfg: RunConfig, ds: SceneDataset):
    wanted = cfg.fusion_branches or tuple(ds.config.branch_names)
    for b in wanted:
        if b not in ds.config.branch_dims:
            raise ConfigError(f"branch {b!r} not in dataset (has {ds.config.branch_names})")
    return tuple(sorted(wanted))


def _build_model(cfg: RunConfig, ds: SceneDataset, fusion: str, seed: int, **overrides):
    """Fresh model for one training run; weights drawn from the seed's init stream."""
    head = ds.config
    rng = rng_for(seed, INIT)

    def bcfg(dim):
        return cfg.branch_config(dim, head.num_actions, head.num_activities, **overrides)

    if fusion == FUSION_NONE:
        branch = cfg.branch
        if branch not in head.branch_dims:
            raise ConfigError(f"branch {branch!r} not in dataset (has {head.branch_names})")
        return BranchModel(branch, bcfg(head.branch_dims[branch]), rng)
    if fusion in (FUSION_EARLY_SUM, FUSION_EARLY_CONCAT):
        names = _dataset_branches(cfg, ds)
        fdims = {b: head.branch_dims[b] for b in names}
        combine = "sum" if fusion == FUSION_EARLY_SUM else "concat"
        return EarlyFusionModel(combine, fdims, bcfg(max(fdims.values())), rng,
                                early_pe=cfg.early_pe)
    raise ConfigError(f"cannot build a single model for fusion {fusion!r}")


def _fit(cfg: RunConfig, ds: SceneDataset, fusion: str, seed: int, **overrides):
    """Train per the config; returns (model, curves, optimizer or None).

    Late fusion trains one model per branch and mixes them afterwards, so it
    returns per-branch curves and no shared optimizer.
    """
    tc = cfg.train_config(seed=seed)
    if fusion == FUSION_LATE:
        names = _dataset_branches(cfg, ds)
        if len(names) < 2:
            raise ConfigError("late fusion needs at least 2 branches in the dataset")
        models, curves = {}, {}
        head = ds.config
        for b in names:
            rng = rng_for(seed, f"{INIT}/{b}")
            bcfg = cfg.branch_config(head.branch_dims[b], head.num_actions,
                                     head.num_activities, **overrides)
            models[b] = BranchModel(b, bcfg, rng)
            curves[b] = train(models[b], ds.scenes, tc)
        weights = {b: cfg.late_weights[b] for b in names if b in cfg.late_weights}
        missing = [b for b in names if b not in weights]
        if missing:
            raise ConfigError(f"late_weights is missing branches {missing}")
        return LateFusionModel(models, weights), curves, None
    model = _build_model(cfg, ds, fusion, seed, **overrides)
    optimizer = make_optimizer(tc, model.parameters())
    curve = train(model, ds.scenes, tc, optimizer=optimizer)
    return model, {"": curve}, optimizer


def cmd_train(cfg: RunConfig, out_dir: Path, checkpoint: Path | None = None) -> int:
    ds = load_dataset(_require(cfg, "train_data"))
    if cfg.total_iterations < 1:
        raise ConfigError("total_iterations must be >= 1 to train")
    out_dir.mkdir(parents=True, exist_ok=True)
    if checkpoint is not None:
        model, start_iter, extras = load_model(checkpoint)
        if model.kind == "late":
            raise UsageError("resume is only supported for single-model checkpoints")
        if start_iter > cfg.total_iterations:
            raise UsageError(f"{checkpoint} is at iteration {start_iter}, past total_iterations "
                             f"{cfg.total_iterations}")
        tc = cfg.train_config()
        optimizer = make_optimizer(tc, model.parameters())
        if any(name.startswith("optim/") for name in extras):
            optimizer.load_state(extras)
        curve = train(model, ds.scenes, tc, start_iteration=start_iter, optimizer=optimizer)
        curves = {"": curve}
    else:
        model, curves, optimizer = _fit(cfg, ds, cfg.fusion, cfg.seed)
    extra = optimizer.state_tensors() if optimizer is not None else ()
    save_model(out_dir / CHECKPOINT_FILE, model, iteration=cfg.total_iterations,
               extra_tensors=extra)
    for name, curve in curves.items():
        filename = f"loss_{name}.csv" if name else "loss.csv"
        curve.write_csv(out_dir / filename)
    last = next(iter(curves.values())).rows[-1] if any(c.rows for c in curves.values()) else None
    if last is not None:
        print(f"trained to iteration {cfg.total_iterations}, last loss {last[2]:.6f}")
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
    return (
        tuple(sorted(cfg.ablate_layers)) or (cfg.num_layers,),
        tuple(sorted(cfg.ablate_heads)) or (cfg.num_heads,),
        tuple(sorted(cfg.ablate_pe)) or (cfg.use_pe,),
        tuple(sorted(cfg.ablate_encoder)) or (cfg.use_encoder,),
        tuple(sorted(cfg.ablate_fusion)) or (cfg.fusion,),
        tuple(sorted(cfg.ablate_seeds)) or (cfg.seed,),
    )


def cmd_ablate(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.train_data and cfg.test_data:
        train_ds = load_dataset(cfg.train_data)
        test_ds = load_dataset(cfg.test_data)
    else:
        # Self-contained grid: the data comes from the shared root seed, so
        # every cell (and every rerun) sees identical scenes.
        if cfg.scene_count < 2:
            raise ConfigError("ablate needs train_data/test_data or scene_count >= 2")
        ds = generate(cfg.scene_config(), cfg.scene_count)
        n_train = _split_counts(cfg.scene_count, cfg.train_fraction)
        if n_train in (0, cfg.scene_count):
            raise ConfigError("train_fraction leaves an empty split")
        train_ds = SceneDataset(ds.config, ds.prototypes, ds.scenes[:n_train])
        test_ds = SceneDataset(ds.config, ds.prototypes, ds.scenes[n_train:])
    if cfg.total_iterations < 1:
        raise ConfigError("total_iterations must be >= 1 to ablate")
    rows = []
    for layers, heads, pe, enc, fusion, seed in itertools.product(*_ablation_axes(cfg)):
        model, _, _ = _fit(cfg, train_ds, fusion, seed, num_layers=layers,
                           num_heads=heads, use_pe=pe, use_encoder=enc)
        report = evaluate_model(model, test_ds.scenes, test_ds.config.num_actions,
                                test_ds.config.num_activities)
        rows.append((layers, heads, pe, enc, fusion, seed,
                     report.group_accuracy, report.action_accuracy))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4], r[5]))
    lines = [",".join(_ABLATION_COLUMNS)]
    for layers, heads, pe, enc, fusion, seed, g_acc, a_acc in rows:
        lines.append(
            f"{layers},{heads},{'on' if pe else 'off'},{'on' if enc else 'off'},"
            f"{fusion},{seed},{f17(g_acc)},{f17(a_acc)}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / ABLATION_FILE, "\n".join(lines) + "\n")
    print(f"wrote {len(rows)} ablation rows to {out_dir / ABLATION_FILE}")
    return 0


def _attention_csv(matrix) -> str:
    header = ",".join(f"actor{c}" for c in range(matrix.shape[1]))
    return f"{header}\n{float_lines(matrix, sep=',')}\n"


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
    out_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    for sid in ids:
        if sid not in by_id:
            raise ConfigError(f"scene id {sid} not in {cfg.test_data}")
        rec = model.forward(branch_inputs(by_id[sid]), MODE_INFER, record_attention=True).attention
        # late fusion records one entry per branch, None for a branch without an encoder
        per_branch = rec if isinstance(rec, dict) else {None: rec}
        records = {b: sub for b, sub in per_branch.items() if sub is not None}
        if not records:
            raise UsageError("this model has no encoder, so there is no attention to dump")
        for b, sub in records.items():
            prefix = "attention_" if b is None else f"attention_{b}_"
            written += _dump_record(out_dir, prefix, sid, sub)
    print(f"wrote {written} attention matrices to {out_dir}")
    return 0


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        cfg = load_run_config(args.config, overrides)
        if args.command == "generate":
            return cmd_generate(cfg, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.out, args.checkpoint)
        if args.command == "evaluate":
            if args.checkpoint is None:
                raise UsageError("evaluate needs --checkpoint")
            return cmd_evaluate(cfg, args.out, args.checkpoint)
        if args.command == "ablate":
            return cmd_ablate(cfg, args.out)
        if args.checkpoint is None:
            raise UsageError("attention-dump needs --checkpoint")
        return cmd_attention_dump(cfg, args.out, args.checkpoint)
    except GroupActError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
