import re

import numpy as np
import pytest

from groupact.checkpoint import load_model, read_checkpoint, write_checkpoint
import groupact.cli as cli
from groupact.cli import _parser, main
from groupact.evaluation import read_report
from groupact.scenes import load_dataset
from groupact.training import LossCurve

BASE = """
rule = key-actor-side
num_actions = 3
num_activities = 2
n_actors = 6
branches = static:8
noise = 0.0
scene_count = 50
train_fraction = 0.72
d_model = 8
num_heads = 1
num_layers = 1
d_ff = 16
dropout = 0.0
use_pe = on
optimizer = adam
lr_schedule = 0:0.01
batch_size = 8
seed = 0
"""


# three branches, for the fusion paths
FUSED = BASE.replace("branches = static:8", "branches = static:8, dynamic-rgb:6, pose:4")
LATE = "fusion = late\nlate_weights = static:2, dynamic-rgb:1, pose:1\n"


def _write_cfg(tmp_path, name, extra="", base=BASE):
    path = tmp_path / name
    path.write_text(base + extra)
    return path


def _generate(tmp_path, out="data", extra="", base=BASE):
    cfg = _write_cfg(tmp_path, "gen.cfg", extra, base)
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
    return tmp_path / out


def test_generate_splits_and_reruns(tmp_path, capsys):
    data = _generate(tmp_path)
    out = capsys.readouterr().out
    assert "36 train / 14 test" in out
    train_ds = load_dataset(data / "train.scenes")
    test_ds = load_dataset(data / "test.scenes")
    assert len(train_ds.scenes) == 36 and len(test_ds.scenes) == 14
    assert abs(len(train_ds.scenes) - 0.72 * 50) <= 1
    train_ids = {s.scene_id for s in train_ds.scenes}
    test_ids = {s.scene_id for s in test_ds.scenes}
    assert not train_ids & test_ids

    again = _generate(tmp_path, out="data2")
    assert (data / "train.scenes").read_bytes() == (again / "train.scenes").read_bytes()
    assert (data / "test.scenes").read_bytes() == (again / "test.scenes").read_bytes()


def test_each_main_call_parses_its_own_arguments(tmp_path, capsys):
    # one parser serves every call in a process; no call's options reach the
    # next, also after a call whose arguments fail
    cfg = str(_write_cfg(tmp_path, "gen.cfg"))
    out = tmp_path / "seeded"
    assert main(["generate", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
    with pytest.raises(SystemExit) as info:
        main(["generate", "--config", cfg, "--seed", "x"])
    assert info.value.code == 2
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "e"),
                 "--checkpoint", str(tmp_path / "missing.ckpt")]) == 1
    assert "missing.ckpt" in capsys.readouterr().err
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "plain")]) == 0
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "e")]) == 1
    assert "evaluate needs --checkpoint" in capsys.readouterr().err
    assert load_dataset(out / "test.scenes").config.seed == 5
    assert load_dataset(tmp_path / "plain" / "test.scenes").config.seed == 0
    assert _parser() is _parser()


def test_generate_seed_override_changes_data(tmp_path):
    a = _generate(tmp_path, out="a")
    cfg = _write_cfg(tmp_path, "gen.cfg")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b"),
                 "--seed", "5"]) == 0
    assert (a / "train.scenes").read_bytes() != (tmp_path / "b" / "train.scenes").read_bytes()


def test_generate_needs_scenes(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "bad.cfg", "scene_count = 0\n")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sparkle = yes\n")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "sparkle" in capsys.readouterr().err


def _train_args(tmp_path, data, out="run", iters=60, resume=None, extra=""):
    cfg = _write_cfg(
        tmp_path, "train.cfg",
        f"train_data = {data / 'train.scenes'}\ntotal_iterations = {iters}\n" + extra,
    )
    args = ["train", "--config", str(cfg), "--out", str(tmp_path / out)]
    if resume is not None:
        args += ["--checkpoint", str(resume)]
    return args


def _train(tmp_path, data, out="run", iters=60, resume=None, extra=""):
    assert main(_train_args(tmp_path, data, out, iters, resume, extra)) == 0
    return tmp_path / out


def test_train_smoke_under_budget(tmp_path):
    import time

    data = _generate(tmp_path)
    t0 = time.time()
    run = _train(tmp_path, data, iters=200)
    assert time.time() - t0 < 10.0
    model, iteration, extras = load_model(run / "model.ckpt")
    assert iteration == 200
    assert model.kind == "branch"
    assert any(name.startswith("optim/") for name in extras)
    curve = LossCurve.read_csv(run / "loss.csv")
    assert [row[0] for row in curve.rows] == list(range(200))
    assert curve.rows[-1][2] < curve.rows[0][2]


# a second input resumes an early-concat model of two branches
@pytest.mark.parametrize("extra", ["", "fusion = early-concat\n"], ids=["none", "early-concat"])
def test_train_resume_continues_and_matches(tmp_path, extra):
    data = _generate(tmp_path, base=FUSED if extra else BASE)
    full = _train(tmp_path, data, out="full", iters=80, extra=extra)
    head = _train(tmp_path, data, out="head", iters=50, extra=extra)
    tail = _train(tmp_path, data, out="tail", iters=80, resume=head / "model.ckpt", extra=extra)

    curve = LossCurve.read_csv(tail / "loss.csv")
    assert [row[0] for row in curve.rows] == list(range(50, 80))
    _, iteration, _ = load_model(tail / "model.ckpt")
    assert iteration == 80
    # with dropout off the resumed run lands on the straight run's bytes
    assert (tail / "model.ckpt").read_bytes() == (full / "model.ckpt").read_bytes()


def test_train_divergence_is_an_error(tmp_path, capsys):
    data = _generate(tmp_path)
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(
        f"train_data = {data / 'train.scenes'}\ntotal_iterations = 40\n"
        "d_model = 8\nd_ff = 16\ndropout = 0.0\nbatch_size = 8\n"
        "lr_schedule = 0:1e300\noptimizer = sgd-momentum\n"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "iteration" in err


def test_evaluate_writes_consistent_report(tmp_path, capsys):
    data = _generate(tmp_path)
    run = _train(tmp_path, data, iters=200)
    cfg = _write_cfg(tmp_path, "eval.cfg", f"test_data = {data / 'test.scenes'}\n")
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out),
                 "--checkpoint", str(run / "model.ckpt")]) == 0
    printed = capsys.readouterr().out
    report = read_report(out)  # re-parse validates summary against the matrices
    assert report.n_scenes == 14
    assert report.group_confusion.sum() == 14
    assert f"group_accuracy {report.group_accuracy:.17g}" in printed


def test_evaluate_needs_checkpoint(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "eval.cfg")
    assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "checkpoint" in capsys.readouterr().err


def test_ablate_grid_rows_and_rerun(tmp_path):
    cfg = _write_cfg(
        tmp_path, "ablate.cfg",
        "total_iterations = 5\n"
        "ablate_layers = 1, 2\nablate_heads = 1, 2\nablate_pe = on, off\n",
    )
    out = tmp_path / "grid"
    assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "layers,heads,pe,encoder,fusion,seed,group_accuracy,action_accuracy"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 8
    keys = [(int(r[0]), int(r[1]), r[2]) for r in rows]
    assert keys == sorted(keys)
    assert {r[4] for r in rows} == {"none"}

    rerun = tmp_path / "grid2"
    assert main(["ablate", "--config", str(cfg), "--out", str(rerun)]) == 0
    assert (out / "ablation.csv").read_bytes() == (rerun / "ablation.csv").read_bytes()


def test_ablate_rejects_a_nan_train_fraction(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "ablate.cfg", "total_iterations = 5\n",
                     BASE.replace("train_fraction = 0.72", "train_fraction = nan"))
    assert main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "grid")]) == 1
    err = capsys.readouterr().err
    assert "error: train_fraction must lie in [0, 1], got nan" in err


@pytest.mark.parametrize("given, unset", [("train_data", "test_data"),
                                           ("test_data", "train_data")])
def test_ablate_with_one_data_file_names_the_unset_key(tmp_path, capsys, given, unset):
    data = _generate(tmp_path)
    split = {"train_data": "train.scenes", "test_data": "test.scenes"}[given]
    cfg = _write_cfg(tmp_path, "ablate.cfg", f"{given} = {data / split}\ntotal_iterations = 5\n")
    assert main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "grid")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(unset) in err and "Traceback" not in err
    assert not (tmp_path / "grid").exists()


def test_attention_dump_matrices(tmp_path):
    data = _generate(tmp_path)
    run = _train(tmp_path, data, iters=20)
    cfg = _write_cfg(
        tmp_path, "dump.cfg",
        f"test_data = {data / 'test.scenes'}\nscene_ids = 36, 37\n",
    )
    out = tmp_path / "attn"
    assert main(["attention-dump", "--config", str(cfg), "--out", str(out),
                 "--checkpoint", str(run / "model.ckpt")]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["attention_scene36_layer0_head0.csv", "attention_scene37_layer0_head0.csv"]
    ds = load_dataset(data / "test.scenes")
    by_id = {s.scene_id: s for s in ds.scenes}
    for sid in (36, 37):
        lines = (out / f"attention_scene{sid}_layer0_head0.csv").read_text().splitlines()
        n = by_id[sid].n_actors
        assert lines[0] == ",".join(f"actor{c}" for c in range(n))
        matrix = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert matrix.shape == (n, n)
        assert np.abs(matrix.sum(axis=1) - 1.0).max() <= 1e-6


def test_attention_dump_rejects_unknown_scene(tmp_path, capsys):
    data = _generate(tmp_path)
    run = _train(tmp_path, data, iters=5)
    cfg = _write_cfg(
        tmp_path, "dump.cfg",
        f"test_data = {data / 'test.scenes'}\nscene_ids = 36, 999\n",
    )
    assert main(["attention-dump", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--checkpoint", str(run / "model.ckpt")]) == 1
    assert "999" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # every id is checked before anything is written


def test_attention_dump_needs_an_encoder(tmp_path, capsys):
    data = _generate(tmp_path)
    run = _train(tmp_path, data, out="plain", iters=5, extra="use_encoder = off\n")
    cfg = _write_cfg(tmp_path, "dump.cfg", f"test_data = {data / 'test.scenes'}\n")
    assert main(["attention-dump", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--checkpoint", str(run / "model.ckpt")]) == 1
    assert "encoder" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key, value", [("bogus", "1"), ("iteration", None)],
                         ids=["extra-key", "no-iteration"])
def test_resume_from_a_checkpoint_with_other_metadata_keys_is_refused(tmp_path, capsys, key,
                                                                      value):
    data = _generate(tmp_path)
    path = _train(tmp_path, data, out="head", iters=5) / "model.ckpt"
    meta, tensors = read_checkpoint(path)
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    write_checkpoint(path, meta, tensors)
    capsys.readouterr()
    assert main(_train_args(tmp_path, data, out="tail", iters=10, resume=path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:0: ") and f"metadata key '{key}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "tail").exists()


def test_resume_from_a_checkpoint_at_a_negative_iteration_is_refused(tmp_path, capsys):
    data = _generate(tmp_path)
    path = _train(tmp_path, data, out="head", iters=5) / "model.ckpt"
    meta, tensors = read_checkpoint(path)
    meta["iteration"] = "-3"
    write_checkpoint(path, meta, tensors)
    capsys.readouterr()
    assert main(_train_args(tmp_path, data, out="tail", iters=10, resume=path)) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {path}:0: bad checkpoint metadata: iteration must be >= 0, "
                   "got -3\n")
    assert not (tmp_path / "tail").exists()


def test_resume_past_total_iterations_is_refused(tmp_path, capsys):
    data = _generate(tmp_path)
    head = _train(tmp_path, data, out="head", iters=10)
    cfg = _write_cfg(tmp_path, "short.cfg",
                     f"train_data = {data / 'train.scenes'}\ntotal_iterations = 5\n")
    args = ["train", "--config", str(cfg), "--out", str(tmp_path / "short"),
            "--checkpoint", str(head / "model.ckpt")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "iteration 10" in err and "total_iterations 5" in err
    assert not (tmp_path / "short" / "model.ckpt").exists()


def test_resume_at_total_iterations_runs_nothing_and_writes_its_checkpoint(tmp_path, capsys):
    data = _generate(tmp_path)
    head = _train(tmp_path, data, out="head", iters=10)
    capsys.readouterr()
    tail = _train(tmp_path, data, out="tail", iters=10, resume=head / "model.ckpt")
    assert capsys.readouterr().out == "no iterations to run (already at 10)\n"
    assert (tail / "model.ckpt").read_bytes() == (head / "model.ckpt").read_bytes()
    assert LossCurve.read_csv(tail / "loss.csv").rows == []


def _with(config, **values):
    """config with each key's line set to its value, or the line added."""
    for key, value in values.items():
        config, found = re.subn(rf"^{key} = .*$", f"{key} = {value}", config, flags=re.M)
        config += "" if found else f"{key} = {value}\n"
    return config


@pytest.mark.parametrize("command, values, message", [
    ("generate", dict(scene_count=0), "scene_count must be >= 1 to generate, got 0"),
    ("train", dict(total_iterations=0), "total_iterations must be >= 1 to train"),
    ("ablate", dict(scene_count=1, total_iterations=5),
     "ablate needs train_data/test_data or scene_count >= 2"),
    ("ablate", dict(train_fraction=0.0, total_iterations=5), "train_fraction leaves an empty split"),
    ("ablate", dict(total_iterations=0), "total_iterations must be >= 1 to ablate"),
    ("attention-dump", dict(), "attention-dump needs --checkpoint"),
], ids=["generate-no-scenes", "train-no-iterations", "ablate-one-scene", "ablate-empty-split",
        "ablate-no-iterations", "dump-no-checkpoint"])
def test_refusals_exit_1_naming_the_key_and_write_nothing(tmp_path, capsys, command, values,
                                                          message):
    if command == "train":
        values = {**values, "train_data": _generate(tmp_path) / "train.scenes"}
        capsys.readouterr()
    cfg = _write_cfg(tmp_path, "bad.cfg", base=_with(BASE, **values))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_attention_dump_refuses_a_repeated_scene_id(tmp_path, capsys):
    data = _generate(tmp_path)
    run = _train(tmp_path, data, iters=5)
    capsys.readouterr()
    cfg = _write_cfg(tmp_path, "dump.cfg",
                     f"test_data = {data / 'test.scenes'}\nscene_ids = 37, 36, 37\n")
    out = tmp_path / "attn"
    assert main(["attention-dump", "--config", str(cfg), "--out", str(out),
                 "--checkpoint", str(run / "model.ckpt")]) == 1
    assert capsys.readouterr().err == "error: config key 'scene_ids': scene_ids names 37 twice\n"
    assert not out.exists()


def test_evaluate_on_an_empty_test_split_fails(tmp_path, capsys):
    gen = tmp_path / "all-train.cfg"
    gen.write_text(BASE.replace("train_fraction = 0.72", "train_fraction = 1.0"))
    data = tmp_path / "data"
    assert main(["generate", "--config", str(gen), "--out", str(data)]) == 0
    run = _train(tmp_path, data, iters=2)
    cfg = _write_cfg(tmp_path, "eval.cfg", f"test_data = {data / 'test.scenes'}\n")
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out),
                 "--checkpoint", str(run / "model.ckpt")]) == 1
    assert str(data / "test.scenes") in capsys.readouterr().err
    assert not out.exists()


def test_attention_dump_bytes_are_the_per_value_f17_join(tmp_path):
    from groupact.fileio import f17
    from groupact.model import branch_inputs
    from groupact.tensor import MODE_INFER

    # ragged scenes and two heads, so the dump covers several matrix sizes
    cfg = tmp_path / "ragged.cfg"
    cfg.write_text(
        BASE.replace("n_actors = 6", "n_actors = 3-9").replace("num_heads = 1", "num_heads = 2")
        + f"train_data = {tmp_path / 'data' / 'train.scenes'}\n"
        f"test_data = {tmp_path / 'data' / 'test.scenes'}\n"
        "total_iterations = 10\nscene_ids = 36, 40\n"
    )
    for args in (["generate", "--out", str(tmp_path / "data")],
                 ["train", "--out", str(tmp_path / "run")],
                 ["attention-dump", "--out", str(tmp_path / "attn"),
                  "--checkpoint", str(tmp_path / "run" / "model.ckpt")]):
        assert main(args + ["--config", str(cfg)]) == 0
    model, _, _ = load_model(tmp_path / "run" / "model.ckpt")
    by_id = {s.scene_id: s for s in load_dataset(tmp_path / "data" / "test.scenes").scenes}
    assert by_id[36].n_actors != by_id[40].n_actors
    for sid in (36, 40):
        rec = model.forward(branch_inputs(by_id[sid]), MODE_INFER, record_attention=True).attention
        for hi, matrix in enumerate(rec.matrices[0]):
            lines = [",".join(f"actor{c}" for c in range(matrix.shape[1]))]
            lines += [",".join(f17(v) for v in row) for row in matrix]
            got = (tmp_path / "attn" / f"attention_scene{sid}_layer0_head{hi}.csv").read_bytes()
            assert got == ("\n".join(lines) + "\n").encode()


def test_late_train_writes_one_curve_per_member_and_no_optimizer_slots(tmp_path, capsys):
    data = _generate(tmp_path, base=FUSED)
    run = _train(tmp_path, data, iters=10, extra=LATE)
    assert sorted(p.name for p in run.iterdir()) == [
        "loss_dynamic-rgb.csv", "loss_pose.csv", "loss_static.csv", "model.ckpt"]
    for b in ("dynamic-rgb", "pose", "static"):
        rows = LossCurve.read_csv(run / f"loss_{b}.csv").rows
        assert [row[0] for row in rows] == list(range(10))
    model, iteration, extras = load_model(run / "model.ckpt")
    assert model.kind == "late" and iteration == 10
    assert model.branches == ["dynamic-rgb", "pose", "static"]
    assert extras == {}
    # the printed loss is the first member's, in branch-name order
    last = LossCurve.read_csv(run / "loss_dynamic-rgb.csv").rows[-1][2]
    assert f"last loss {last:.6f}" in capsys.readouterr().out

    args = _train_args(tmp_path, data, out="again", iters=20, resume=run / "model.ckpt", extra=LATE)
    assert main(args) == 1
    assert "single-model checkpoints" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("extra, message", [
    # the default weights name static and the two dynamic streams, not pose
    ("fusion = late\n", "no fusion weight for branch 'pose'"),
    ("fusion = early-sum\nfusion_branches = static, depth\n", "branch 'depth' not in dataset"),
], ids=["late-weight", "fusion-branch"])
def test_fusion_config_errors_fail_before_training(tmp_path, capsys, extra, message):
    import time

    data = _generate(tmp_path, base=FUSED)
    args = _train_args(tmp_path, data, out="x", iters=20000, extra=extra)
    t0 = time.time()
    assert main(args) == 1
    assert time.time() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_optimizer_slot_error_names_the_checkpoint(tmp_path, capsys):
    data = _generate(tmp_path)
    sgd = _write_cfg(tmp_path, "sgd.cfg", f"train_data = {data / 'train.scenes'}\n"
                     "total_iterations = 5\n", BASE.replace("adam", "sgd-momentum"))
    head = tmp_path / "head"
    assert main(["train", "--config", str(sgd), "--out", str(head)]) == 0
    # Adam resumes from its step count, which an SGD checkpoint does not hold
    args = _train_args(tmp_path, data, out="tail", iters=10, resume=head / "model.ckpt")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"error: {head / 'model.ckpt'}:0: missing optimizer slot 'optim/step'" in err
    assert not (tmp_path / "tail" / "model.ckpt").exists()


def test_sgd_resume_from_an_adam_checkpoint_is_refused(tmp_path, capsys):
    data = _generate(tmp_path)
    head = _train(tmp_path, data, out="head", iters=5)
    # SGD's velocity names are Adam's second moments; Adam's other slots give it away
    sgd = BASE.replace("adam", "sgd-momentum")
    cfg = _write_cfg(tmp_path, "sgd.cfg", f"train_data = {data / 'train.scenes'}\n"
                     "total_iterations = 10\n", sgd)
    args = ["train", "--config", str(cfg), "--out", str(tmp_path / "tail"),
            "--checkpoint", str(head / "model.ckpt")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {head / 'model.ckpt'}:0: unexpected optimizer slot")
    assert "Traceback" not in err
    assert not (tmp_path / "tail" / "model.ckpt").exists()


@pytest.mark.parametrize("num_actions", [2, 5], ids=["fewer", "more"])
def test_evaluate_refuses_a_dataset_with_other_class_counts(tmp_path, capsys, num_actions):
    run = _train(tmp_path, _generate(tmp_path), iters=2)
    other = BASE.replace("num_actions = 3", f"num_actions = {num_actions}")
    data = _generate(tmp_path, out="other", base=other)
    cfg = _write_cfg(tmp_path, "eval.cfg", f"test_data = {data / 'test.scenes'}\n", base=other)
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out),
                 "--checkpoint", str(run / "model.ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "3 actions" in err and f"have {num_actions} and 2" in err
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["generate", "train", "evaluate", "ablate", "attention-dump"])
def test_out_naming_a_file_is_an_error(tmp_path, capsys, command, under):
    data = _generate(tmp_path)
    run = _train(tmp_path, data, iters=2)
    cfg = _write_cfg(tmp_path, "run.cfg", f"train_data = {data / 'train.scenes'}\n"
                     f"test_data = {data / 'test.scenes'}\ntotal_iterations = 2\n")
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / "sub" if under else taken
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out),
                 "--checkpoint", str(run / "model.ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and "Traceback" not in err
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command, spied", [("generate", "generate"), ("ablate", "train")])
def test_unusable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command, spied,
                                                  under):
    cfg = _write_cfg(tmp_path, "run.cfg", "total_iterations = 2\n")
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / "sub" if under else taken
    calls, real = [], getattr(cli, spied)
    monkeypatch.setattr(cli, spied, lambda *args, **kw: calls.append(args) or real(*args, **kw))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    reason = "Not a directory" if under else "File exists"
    assert capsys.readouterr().err == f"error: {out}: {reason}\n"
    assert calls == [] and taken.read_text() == "keep\n"
