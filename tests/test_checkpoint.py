import re
import struct
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from groupact.checkpoint import (
    load_model,
    read_checkpoint,
    save_model,
    write_checkpoint,
)
from groupact.cli import main
from groupact.errors import DataError, ParseError
from groupact.model import BranchConfig, BranchModel, EarlyFusionModel, LateFusionModel
from groupact.seeding import rng_for


def _cfg(**kw):
    base = dict(feature_dim=8, num_actions=3, num_activities=4, d_model=8,
                num_heads=2, num_layers=2, d_ff=16, dropout=0.1, use_pe=True)
    base.update(kw)
    return BranchConfig(**base)


def _assert_same_params(a, b):
    pa, pb = a.parameters(), b.parameters()
    assert [name for name, _ in pa] == [name for name, _ in pb]
    for (name, ta), (_, tb) in zip(pa, pb):
        npt.assert_array_equal(ta.data, tb.data, err_msg=name)


def test_raw_round_trip(tmp_path):
    path = tmp_path / "raw.ckpt"
    meta = {"kind": "branch", "note": "hello world"}
    tensors = [("a", np.arange(6.0).reshape(2, 3)), ("b", np.array(3.5))]
    write_checkpoint(path, meta, tensors)
    meta2, tensors2 = read_checkpoint(path)
    assert meta2 == meta
    assert [name for name, _ in tensors2] == ["a", "b"]
    npt.assert_array_equal(tensors2[0][1], tensors[0][1])
    npt.assert_array_equal(tensors2[1][1], tensors[1][1])


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ParseError):
        read_checkpoint(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_model(path, BranchModel("static", _cfg(), rng_for(0, "init")))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 9])
    with pytest.raises(ParseError):
        read_checkpoint(path)


def test_trailing_bytes(tmp_path):
    path = tmp_path / "model.ckpt"
    save_model(path, BranchModel("static", _cfg(), rng_for(0, "init")))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ParseError):
        read_checkpoint(path)


def test_branch_model_round_trip(tmp_path):
    path = tmp_path / "model.ckpt"
    model = BranchModel("flow", _cfg(pe_stage="pre-embed"), rng_for(7, "init"))
    save_model(path, model, iteration=123)
    loaded, iteration, extras = load_model(path)
    assert iteration == 123
    assert extras == {}
    assert loaded.kind == "branch" and loaded.branch == "flow"
    assert loaded.cfg == model.cfg
    _assert_same_params(model, loaded)


def test_early_fusion_round_trip(tmp_path):
    for combine in ("sum", "concat"):
        path = tmp_path / f"early-{combine}.ckpt"
        model = EarlyFusionModel(combine, {"rgb": 6, "static": 8}, _cfg(),
                                 rng_for(1, "init"), early_pe="per-branch")
        save_model(path, model)
        loaded, _, _ = load_model(path)
        assert loaded.kind == f"early-{combine}"
        assert loaded.branches == ["rgb", "static"]
        assert loaded.feature_dims == {"rgb": 6, "static": 8}
        assert loaded.early_pe == "per-branch"
        assert loaded.cfg == model.cfg
        _assert_same_params(model, loaded)


def test_late_fusion_round_trip(tmp_path):
    path = tmp_path / "late.ckpt"
    cfg = _cfg()
    model = LateFusionModel(
        {"a": BranchModel("a", cfg, rng_for(2, "init")),
         "b": BranchModel("b", _cfg(feature_dim=6), rng_for(3, "init"))},
        {"a": 2.0, "b": 1.0},
    )
    save_model(path, model, iteration=9)
    loaded, iteration, _ = load_model(path)
    assert iteration == 9
    assert loaded.kind == "late"
    assert loaded.weights == model.weights
    assert loaded.models["b"].cfg.feature_dim == 6
    _assert_same_params(model, loaded)


def test_save_is_byte_identical(tmp_path):
    model = BranchModel("static", _cfg(), rng_for(5, "init"))
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    save_model(p1, model, iteration=42)
    save_model(p2, model, iteration=42)
    assert p1.read_bytes() == p2.read_bytes()


def test_extra_tensors_round_trip(tmp_path):
    path = tmp_path / "model.ckpt"
    model = BranchModel("static", _cfg(), rng_for(6, "init"))
    slots = [("optim/v/embed_w", np.full((8, 8), 0.25)), ("optim/step", np.array(17.0))]
    save_model(path, model, extra_tensors=slots)
    _, _, extras = load_model(path)
    assert sorted(extras) == ["optim/step", "optim/v/embed_w"]
    npt.assert_array_equal(extras["optim/v/embed_w"], slots[0][1])
    assert extras["optim/step"].item() == 17.0


def test_missing_parameter_tensor(tmp_path):
    path = tmp_path / "model.ckpt"
    model = BranchModel("static", _cfg(), rng_for(8, "init"))
    save_model(path, model)
    meta, tensors = read_checkpoint(path)
    tensors = [(n, t) for n, t in tensors if n != "action_w"]
    write_checkpoint(path, meta, tensors)
    with pytest.raises(ParseError):
        load_model(path)


def test_wrong_tensor_shape(tmp_path):
    path = tmp_path / "model.ckpt"
    model = BranchModel("static", _cfg(), rng_for(9, "init"))
    save_model(path, model)
    meta, tensors = read_checkpoint(path)
    tensors = [(n, np.zeros((2, 2)) if n == "action_w" else t) for n, t in tensors]
    write_checkpoint(path, meta, tensors)
    with pytest.raises(ParseError):
        load_model(path)


def _branch(tmp_path):
    path = tmp_path / "branch.ckpt"
    save_model(path, BranchModel("static", _cfg(), rng_for(10, "init")), iteration=3)
    return path


@pytest.mark.parametrize("name", ["embed_b", "optim/step"])
def test_extra_tensor_name_used_twice_is_refused_before_writing(tmp_path, name):
    path = tmp_path / "model.ckpt"
    model = BranchModel("static", _cfg(), rng_for(6, "init"))
    slots = [("optim/step", np.array(17.0)), (name, np.zeros(8))]
    with pytest.raises(DataError, match=f"^tensor name '{name}' is used twice$"):
        save_model(path, model, extra_tensors=slots)
    assert list(tmp_path.iterdir()) == []


def _early(tmp_path):
    path = tmp_path / "early.ckpt"
    save_model(path, EarlyFusionModel("concat", {"rgb": 4, "static": 8}, _cfg(),
                                      rng_for(11, "init")))
    return path


def _late(tmp_path):
    path = tmp_path / "late.ckpt"
    models = {"a": BranchModel("a", _cfg(), rng_for(12, "init")),
              "b": BranchModel("b", _cfg(), rng_for(13, "init"))}
    save_model(path, LateFusionModel(models, {"a": 2.0, "b": 1.0}))
    return path


@pytest.mark.parametrize("build", [_branch, _late])
def test_a_negative_iteration_is_neither_written_nor_loaded(tmp_path, build):
    path = build(tmp_path)
    model, _, _ = load_model(path)
    refused = tmp_path / "negative.ckpt"
    with pytest.raises(DataError, match="^iteration must be >= 0, got -3$"):
        save_model(refused, model, iteration=-3)
    assert not refused.exists()
    meta, tensors = read_checkpoint(path)
    meta["iteration"] = "-3"
    write_checkpoint(path, meta, tensors)
    message = "bad checkpoint metadata: iteration must be >= 0, got -3"
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:0: {message}$"):
        load_model(path)


# (model, metadata key, new value or None to delete the key)
_BAD_METADATA = [
    (_branch, "cfg.d_model", "thirty"),
    (_branch, "cfg.dropout", "x"),
    (_branch, "cfg.use_pe", "maybe"),
    (_branch, "iteration", "ten"),
    (_branch, "branch", None),
    (_branch, "cfg.pe_stage", None),
    (_branch, "cfg.d_model", "6"),  # BranchConfig: not divisible by 4
    (_branch, "cfg.pe_stage", "sideways"),
    (_branch, "cfg.pe_scale", "nan"),  # BranchConfig: pe_scale must be finite and positive
    (_branch, "kind", "mystery"),
    (_early, "branches", "rgb,nope"),
    (_early, "branches", None),
    (_early, "early_pe", "sideways"),
    (_early, "early_pe", None),
    (_early, "fdim.rgb", "four"),
    (_late, "late_weight.a", "heavy"),
    (_late, "late_weight.a", "-1"),
    (_late, "branches", "a"),
    (_late, "cfg.b.num_heads", None),
    (_late, "cfg.b.dropout", "0.5"),  # LateFusionModel: members differ beyond feature_dim
    # values that decode, but not from the one text a save writes for them
    (_branch, "iteration", "1_0"),
    (_branch, "cfg.use_pe", "7"),
    (_branch, "cfg.d_ff", " +16"),
    (_branch, "cfg.dropout", "0.10"),
    (_late, "late_weight.a", "2"),
]


@pytest.mark.parametrize(
    "build, key, value", _BAD_METADATA,
    ids=[f"{b.__name__[1:]}-{k}-{v}" for b, k, v in _BAD_METADATA])
def test_bad_metadata_is_a_parse_error_naming_the_file(tmp_path, build, key, value):
    path = build(tmp_path)
    meta, tensors = read_checkpoint(path)
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    write_checkpoint(path, meta, tensors)
    with pytest.raises(ParseError, match=str(path)):
        load_model(path)


@pytest.mark.parametrize("build", [_branch, _early, _late])
@pytest.mark.parametrize("key, value, message", [
    ("bogus", "1", "checkpoint has unknown metadata key 'bogus'"),
    ("iteration", None, "checkpoint is missing metadata key 'iteration'"),
], ids=["extra-key", "no-iteration"])
def test_metadata_keys_are_the_ones_save_model_writes(tmp_path, build, key, value, message):
    path = build(tmp_path)
    meta, tensors = read_checkpoint(path)
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    write_checkpoint(path, meta, tensors)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:0: {message}$"):
        load_model(path)


def test_save_refuses_an_unknown_model_kind(tmp_path):
    with pytest.raises(DataError) as info:
        save_model(tmp_path / "model.ckpt", SimpleNamespace(kind="mystery"))
    assert str(info.value) == "cannot serialise model kind 'mystery'"
    assert list(tmp_path.iterdir()) == []


def test_repeated_tensor_name_is_a_parse_error(tmp_path):
    # save_model refuses to write one; write_checkpoint writes what it is given
    path = _branch(tmp_path)
    meta, tensors = read_checkpoint(path)
    write_checkpoint(path, meta, tensors + tensors[1:2])
    with pytest.raises(ParseError, match="duplicate tensor names in checkpoint") as info:
        load_model(path)
    assert info.value.path == str(path) and info.value.line_no == 0


def test_repeated_metadata_key_is_a_parse_error(tmp_path):
    # write_checkpoint takes a dict, so the second key is renamed in the bytes
    path = _branch(tmp_path)
    meta, tensors = read_checkpoint(path)
    write_checkpoint(path, {**meta, "iteratioX": "7"}, tensors)
    path.write_bytes(path.read_bytes().replace(b"iteratioX", b"iteration"))
    with pytest.raises(ParseError, match="duplicate metadata key 'iteration'") as info:
        load_model(path)
    assert info.value.path == str(path) and info.value.line_no == 0


def test_flipped_key_byte_is_a_parse_error(tmp_path):
    path = _branch(tmp_path)
    blob = path.read_bytes()
    at = blob.index(b"cfg.d_model")
    path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
    with pytest.raises(ParseError, match=str(path)):
        load_model(path)


def test_unreadable_path_is_a_parse_error(tmp_path):
    for path in (tmp_path / "missing.ckpt", tmp_path):
        with pytest.raises(ParseError, match=str(path)):
            load_model(path)


def test_cli_evaluate_reports_bad_metadata_without_traceback(tmp_path, capsys):
    path = _branch(tmp_path)
    meta, tensors = read_checkpoint(path)
    meta["cfg.d_model"] = "thirty"
    write_checkpoint(path, meta, tensors)
    code = main(["evaluate", "--out", str(tmp_path / "eval"), "--checkpoint", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and str(path) in err
    assert "Traceback" not in err


# The model metadata order written before it was derived from BranchConfig's fields.
_OLD_CFG_ORDER = ("feature_dim", "num_actions", "num_activities", "d_model", "num_heads",
                  "num_layers", "d_ff", "dropout", "pe_scale", "use_pe", "use_encoder",
                  "pe_stage")


def test_checkpoint_in_the_old_metadata_order_loads(tmp_path):
    path = tmp_path / "old.ckpt"
    model = BranchModel("static", _cfg(pe_stage="pre-embed"), rng_for(14, "init"))
    save_model(path, model, iteration=5)
    meta, tensors = read_checkpoint(path)
    old = {key: meta[key] for key in ("kind", "iteration", "branch")}
    old.update({f"cfg.{name}": meta[f"cfg.{name}"] for name in _OLD_CFG_ORDER})
    assert sorted(old) == sorted(meta) and list(old) != list(meta)
    write_checkpoint(path, old, tensors)
    loaded, iteration, _ = load_model(path)
    assert iteration == 5 and loaded.cfg == model.cfg
    _assert_same_params(model, loaded)


def test_save_ignores_a_stale_temp_name(tmp_path):
    # Writers used to stage every save in "<name>.tmp", so a leftover there
    # (here a directory) made the save fail.
    path = tmp_path / "model.ckpt"
    (tmp_path / "model.ckpt.tmp").mkdir()
    model = BranchModel("static", _cfg(), rng_for(15, "init"))
    save_model(path, model)
    _assert_same_params(model, load_model(path)[0])


def test_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "model.ckpt"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        save_model(target, BranchModel("static", _cfg(), rng_for(16, "init")))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_overflowing_tensor_shape_is_a_parse_error(tmp_path):
    path = tmp_path / "forged.ckpt"
    write_checkpoint(path, {"kind": "branch"}, [("a", np.zeros((2, 2)))])
    blob = path.read_bytes()
    dims = struct.pack("<2Q", 2, 2)
    # 2**32 * 2**32 wraps to 0 in int64, which would ask for zero bytes
    path.write_bytes(blob.replace(dims, struct.pack("<2Q", 2**32, 2**32)))
    with pytest.raises(ParseError, match=str(path)):
        read_checkpoint(path)


def test_forged_tensor_shape_is_a_parse_error_not_a_memory_error(tmp_path):
    path = tmp_path / "forged.ckpt"
    write_checkpoint(path, {"kind": "branch"}, [("a", np.zeros((2, 2))), ("b", np.zeros(3))])
    blob = path.read_bytes()
    # 2**40 x 2**20 float64 values would ask for 8 PiB
    path.write_bytes(blob.replace(struct.pack("<2Q", 2, 2), struct.pack("<2Q", 2**40, 2**20)))
    with pytest.raises(ParseError, match="truncated checkpoint: record 'a' of shape"):
        read_checkpoint(path)


def test_raw_checkpoint_bytes_are_the_gack_v1_layout(tmp_path):
    path = tmp_path / "raw.ckpt"
    a, b = np.arange(6.0).reshape(2, 3), np.array(3.5)
    write_checkpoint(path, {"kind": "branch"}, [("a", a), ("b", b)])

    def string(text):
        return struct.pack("<I", len(text)) + text.encode()

    want = (b"GACK" + struct.pack("<II", 1, 1) + string("kind") + string("branch")
            + struct.pack("<I", 2)
            + string("a") + struct.pack("<I2Q", 2, 2, 3) + a.astype("<f8").tobytes()
            + string("b") + struct.pack("<I", 0) + b.astype("<f8").tobytes())
    assert path.read_bytes() == want


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["enc/layer1/ff1_w", "optim/m/embed_w", "optim/step"])
def test_non_finite_tensor_is_a_parse_error_naming_it(tmp_path, name, value):
    path = tmp_path / "model.ckpt"
    model = BranchModel("static", _cfg(), rng_for(8, "init"))
    slots = [("optim/step", np.array(3.0)), ("optim/m/embed_w", np.zeros((8, 8)))]
    save_model(path, model, extra_tensors=slots)
    meta, tensors = read_checkpoint(path)
    arr = dict(tensors)[name]
    arr.reshape(-1)[arr.size // 2] = value
    write_checkpoint(path, meta, tensors)
    with pytest.raises(ParseError, match=name) as info:
        load_model(path)
    assert info.value.path == str(path)


def test_load_builds_zero_weights_then_copies_every_stored_array(tmp_path, monkeypatch):
    import groupact.model as gmodel
    import groupact.transformer as gtransformer

    path = tmp_path / "model.ckpt"
    model = EarlyFusionModel("concat", {"a": 8, "b": 6}, _cfg(), rng_for(4, "init"))
    save_model(path, model)
    rngs, xavier_uniform = [], gtransformer.xavier_uniform

    def recording(rng, fan_in, fan_out):
        rngs.append(rng)
        return xavier_uniform(rng, fan_in, fan_out)

    for module in (gmodel, gtransformer):
        monkeypatch.setattr(module, "xavier_uniform", recording)
    loaded, _, _ = load_model(path)
    assert rngs and all(rng is None for rng in rngs)  # no throwaway init draws
    _assert_same_params(model, loaded)
    for name, t in loaded.parameters():
        # copied into arrays of their own, not views of the file's buffer
        assert t.data.flags.owndata and t.data.flags.aligned, name
