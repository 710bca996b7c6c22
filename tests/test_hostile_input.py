"""Readers of damaged files fail with a GroupActError that names the file,
never with a traceback, and never load a non-finite value."""

import dataclasses
import re

import numpy as np
import pytest

from groupact.checkpoint import load_model, read_checkpoint, save_model, write_checkpoint
from groupact.cli import main
from groupact.config import load_run_config
from groupact.errors import GroupActError, ParseError
from groupact.evaluation import (
    ACTION_CONFUSION_FILE,
    GROUP_CONFUSION_FILE,
    SUMMARY_FILE,
    EvalReport,
    read_report,
    write_report,
)
from groupact.model import BranchConfig, BranchModel, LateFusionModel
from groupact.fileio import read_container, write_container
from groupact.scenes import MAGIC, VERSION, SceneConfig, generate, load_dataset, save_dataset
from groupact.seeding import rng_for
from groupact.training import LossCurve


def _late_model():
    cfg = BranchConfig(feature_dim=4, num_actions=5, num_activities=4, d_model=8, d_ff=8)
    rng = rng_for(0, "init")
    return LateFusionModel({b: BranchModel(b, cfg, rng) for b in ("static", "dynamic-rgb")},
                           {"static": 2.0, "dynamic-rgb": 1.0})


def _write_inputs(tmp_path):
    """A small dataset, a late-fusion checkpoint, a loss curve and a report.

    Returns {path: loader}; each loader reads the file (or, for the report,
    its directory) and returns every float it loaded as one array.
    """
    ds = generate(SceneConfig(rule="key-actor-side", num_actions=5, num_activities=4,
                              n_actors=(2, 4), branch_dims={"static": 4, "dynamic-rgb": 4},
                              noise=0.5, corrupt_prob=0.25, seed=0), 5)
    save_dataset(ds, tmp_path / "data.scenes")
    save_model(tmp_path / "model.ckpt", _late_model(), iteration=3,
               extra_tensors=[("optim/step", np.array([0.5, 2.0]))])
    curve = LossCurve()
    for it in range(4):
        curve.append(it, 0.01, 2.5 / (it + 1), 1.25, 0.75)
    curve.write_csv(tmp_path / "loss.csv")
    write_report(EvalReport(5, np.array([[2, 1], [0, 2]]), np.array([[6, 2], [1, 5]])),
                 tmp_path / "eval")

    def dataset_floats(path):
        got = load_dataset(path)
        arrays = [[got.config.noise, got.config.corrupt_prob], *got.prototypes.values()]
        for scene in got.scenes:
            arrays += [scene.centers, *scene.features.values()]
        return np.concatenate([np.ravel(a) for a in arrays])

    def checkpoint_floats(path):
        got, _, extras = load_model(path)
        arrays = [list(got.weights.values()), *extras.values()]
        for sub in got.models.values():
            values = [getattr(sub.cfg, f.name) for f in dataclasses.fields(sub.cfg)]
            arrays += [[v for v in values if isinstance(v, float)]]
            arrays += [t.data for _, t in sub.parameters()]
        return np.concatenate([np.ravel(np.asarray(a, dtype=np.float64)) for a in arrays])

    def curve_floats(path):
        return np.array([row for row in LossCurve.read_csv(path).rows], dtype=np.float64)

    def report_floats(path):
        got = read_report(path.parent)
        return np.array([got.group_accuracy, got.action_accuracy])

    report = {tmp_path / "eval" / name: report_floats
              for name in (SUMMARY_FILE, GROUP_CONFUSION_FILE, ACTION_CONFUSION_FILE)}
    return {tmp_path / "data.scenes": dataset_floats, tmp_path / "model.ckpt": checkpoint_floats,
            tmp_path / "loss.csv": curve_floats, **report}


NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _mutate(data: bytes, rng) -> bytes:
    """Truncate, flip one byte, or replace one numeric token with nan, inf or 1e400."""
    kind = rng.integers(3)
    if kind == 0:
        return data[:rng.integers(len(data))]
    if kind == 1:
        at = rng.integers(len(data))
        return data[:at] + bytes([data[at] ^ int(rng.integers(1, 256))]) + data[at + 1:]
    tokens = list(NUMBER.finditer(data))
    token = tokens[rng.integers(len(tokens))]
    return data[:token.start()] + [b"nan", b"inf", b"1e400"][rng.integers(3)] + data[token.end():]


def test_seeded_fuzz_of_every_reader(tmp_path):
    loaders = _write_inputs(tmp_path)
    for path, load in loaders.items():
        assert np.isfinite(load(path)).all()  # the undamaged inputs load
    originals = {path: path.read_bytes() for path in loaders}
    rng = np.random.default_rng(2024)
    paths = list(loaders)
    failures = 0
    for case in range(400):
        path = paths[rng.integers(len(paths))]
        path.write_bytes(_mutate(originals[path], rng))
        try:
            floats = loaders[path](path)
        except GroupActError:
            failures += 1
        else:
            assert np.isfinite(floats).all(), f"case {case}: {path.name} loaded a non-finite value"
        path.write_bytes(originals[path])
    assert failures > 100  # the mutations do damage


CURVE_HEADER = b"iteration,lr,total_loss,activity_loss,action_loss\n"


def _report(tmp_path):
    out = tmp_path / "eval"
    write_report(EvalReport(5, np.array([[2, 1], [0, 2]]), np.array([[6, 2], [1, 5]])), out)
    return out


@pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
def test_loss_curve_rejects_a_non_finite_value(tmp_path, token):
    path = tmp_path / "loss.csv"
    path.write_bytes(CURVE_HEADER + f"0,0.01,1,0.5,0.5\n1,0.01,{token},0.5,0.5\n".encode())
    with pytest.raises(ParseError, match=f"{re.escape(str(path))}:3: non-finite"):
        LossCurve.read_csv(path)


@pytest.mark.parametrize("row", [" 1,0.01,1,0.5,0.5", "+0_1,0.01,1,0.5,0.5", "01,0.01,1,0.5,0.5",
                                 "1,0.010,1,0.5,0.5", "1,0.01,1.0,0.5,0.5", "1,0.01,1,5e-1,0.5",
                                 "1,0.01,1,0.5,0.1"],
                         ids=["iteration-space", "iteration-underscore", "iteration-zero",
                              "lr-trailing-zero", "total-point-zero", "activity-exponent",
                              "action-short-form"])
def test_loss_curve_loads_only_the_text_write_csv_writes(tmp_path, row):
    path = tmp_path / "loss.csv"
    path.write_bytes(CURVE_HEADER + f"0,0.01,1,0.5,0.5\n{row}\n".encode())
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: "):
        LossCurve.read_csv(path)


@pytest.mark.parametrize("read, name, data, line", [
    (LossCurve.read_csv, "missing.csv", None, 0),
    (LossCurve.read_csv, "loss.csv", CURVE_HEADER + b"0,0.01,1,0.5,0.5\n1,\xff\n", 3),
    (load_dataset, "missing.scenes", None, 0),
    (load_dataset, "bad.scenes", b"groupact\xe9\n", 1),
    (load_run_config, "missing.cfg", None, 0),
    (load_run_config, "bad.cfg", b"seed = 1\nd_model = \xff\n", 2),
], ids=["curve-missing", "curve-not-utf8", "dataset-missing", "dataset-not-utf8",
        "config-missing", "config-not-utf8"])
def test_unreadable_file_is_an_error_naming_it(tmp_path, read, name, data, line):
    path = tmp_path / name
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(GroupActError, match=f"{re.escape(str(path))}:{line}: "):
        read(path)


@pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
def test_dataset_with_a_non_finite_noise_is_rejected(tmp_path, token):
    path = tmp_path / "data.scenes"
    save_dataset(generate(SceneConfig(rule="majority-action", num_actions=3, num_activities=3,
                                      n_actors=3, branch_dims={"static": 4}, seed=0), 2), path)
    meta, records = read_container(path, MAGIC, VERSION, "dataset")
    write_container(path, MAGIC, VERSION, {**meta, "noise": token},
                    [(name, arr.shape, (arr,)) for name, arr in records])
    with pytest.raises(ParseError, match=f"{re.escape(str(path))}:.*noise"):
        load_dataset(path)


@pytest.mark.parametrize("file, line, text", [
    (SUMMARY_FILE, 2, "scenes,four"),
    (SUMMARY_FILE, 2, "scenes,6"),
    (SUMMARY_FILE, 3, "group_accuracy,0.8x"),
    (SUMMARY_FILE, 4, "action_accuracy,nan"),
    (GROUP_CONFUSION_FILE, 2, "0,2,-1"),
    (GROUP_CONFUSION_FILE, 2, "0,2,99999999999999999999"),
    # counts and headers that parse, but not as the text a save writes
    (GROUP_CONFUSION_FILE, 2, "0,+2,1"),
    (GROUP_CONFUSION_FILE, 3, "1,0_0,2"),
    (GROUP_CONFUSION_FILE, 3, "1, 0,2"),
    (GROUP_CONFUSION_FILE, 2, "0,02,1"),
    (ACTION_CONFUSION_FILE, 1, "true\\pred,x,y"),
    (ACTION_CONFUSION_FILE, 1, "true\\pred,1,0"),
], ids=["scenes-word", "scenes-miscount", "accuracy-mangled", "accuracy-nan", "count-negative",
        "count-overflow", "count-plus", "count-underscore", "count-space", "count-leading-zero",
        "header-letters", "header-order"])
def test_damaged_report_is_a_parse_error_naming_it(tmp_path, file, line, text):
    path = _report(tmp_path) / file
    lines = path.read_text().splitlines()
    lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"{re.escape(str(path))}:{line}: "):
        read_report(path.parent)


@pytest.mark.parametrize("name", [SUMMARY_FILE, GROUP_CONFUSION_FILE, ACTION_CONFUSION_FILE])
def test_report_with_a_missing_file_is_a_parse_error(tmp_path, name):
    out = _report(tmp_path)
    (out / name).unlink()
    with pytest.raises(ParseError, match=re.escape(str(out / name))):
        read_report(out)


@pytest.mark.parametrize("weight", ["nan", "inf", "-1"])
def test_checkpoint_with_a_bad_late_weight_is_rejected(tmp_path, weight):
    path = tmp_path / "model.ckpt"
    save_model(path, _late_model())
    meta, tensors = read_checkpoint(path)
    meta["late_weight.static"] = weight
    write_checkpoint(path, meta, tensors)
    with pytest.raises(ParseError, match=re.escape(str(path))):
        load_model(path)


LATE_NO_ENCODER = """
rule = key-actor-side
num_actions = 3
num_activities = 2
n_actors = 4
branches = static:8, dynamic-rgb:8
scene_count = 20
train_fraction = 0.5
d_model = 8
d_ff = 16
fusion = late
use_encoder = off
batch_size = 4
total_iterations = 2
seed = 0
"""


def test_attention_dump_of_late_fusion_without_encoders_is_an_error(tmp_path, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(LATE_NO_ENCODER + f"train_data = {data / 'train.scenes'}\n"
                   f"test_data = {data / 'test.scenes'}\n")
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    capsys.readouterr()
    code = main(["attention-dump", "--config", str(cfg), "--out", str(tmp_path / "att"),
                 "--checkpoint", str(run / "model.ckpt")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "encoder" in err
    assert "Traceback" not in err
    assert not (tmp_path / "att").exists()
