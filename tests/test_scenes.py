import re
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from groupact.errors import ConfigError, DataError, ParseError
from groupact.fileio import read_container, write_container
from groupact.scenes import (
    MAGIC,
    SIDE_MARGIN,
    VERSION,
    SceneConfig,
    SceneDataset,
    generate,
    load_dataset,
    majority_action,
    save_dataset,
)

from helpers import oracle_key_actor_predict


def _vb_cfg(**kw):
    base = dict(rule="key-actor-side", num_actions=9, num_activities=8, n_actors=12,
                branch_dims={"static": 16}, noise=0.5, seed=0)
    base.update(kw)
    return SceneConfig(**base)


def _cc_cfg(**kw):
    base = dict(rule="majority-action", num_actions=5, num_activities=5, n_actors=(2, 12),
                branch_dims={"static": 16}, noise=0.5, seed=0)
    base.update(kw)
    return SceneConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        _vb_cfg(rule="nearest-neighbour")
    with pytest.raises(ConfigError):
        _vb_cfg(num_activities=7)  # side doubling needs an even count
    with pytest.raises(ConfigError):
        _vb_cfg(num_actions=4)  # no room for background actions
    with pytest.raises(ConfigError):
        _cc_cfg(num_activities=4)
    with pytest.raises(ConfigError):
        _vb_cfg(branch_dims={"static": 3})
    with pytest.raises(ConfigError):
        _vb_cfg(noise=-0.1)
    with pytest.raises(ConfigError):
        _vb_cfg(n_actors=(5, 2))
    with pytest.raises(ConfigError):
        _vb_cfg(corrupt_prob=1.5)
    with pytest.raises(ConfigError):
        _vb_cfg(complementary=True)  # needs a second branch
    with pytest.raises(ConfigError):
        _cc_cfg(branch_dims={"a": 8, "b": 8}, complementary=True)
    with pytest.raises(ConfigError, match="need at least one branch"):
        _vb_cfg(branch_dims={})
    for name in ("", "two words"):
        with pytest.raises(ConfigError, match="bad branch name"):
            _vb_cfg(branch_dims={name: 8})
    with pytest.raises(ConfigError, match="need >= 4 base activities, got 2"):
        _vb_cfg(num_activities=4, branch_dims={"a": 8, "b": 8}, complementary=True)
    _vb_cfg(branch_dims={"a": 8, "b": 8}, complementary=True)


def test_volleyball_label_construction():
    ds = generate(_vb_cfg(seed=1), 200)
    cfg = ds.config
    for scene in ds.scenes:
        assert 0 <= scene.activity < cfg.num_activities
        base, side = divmod(scene.activity, 2)
        keys = [i for i, a in enumerate(scene.actions) if a < cfg.num_base]
        assert len(keys) == 1
        key = keys[0]
        assert scene.actions[key] == base
        x = scene.centers[key, 0]
        assert (x > 0.5) == bool(side)
        assert SIDE_MARGIN <= min(x, 1 - x)
        assert (scene.centers >= 0).all() and (scene.centers <= 1).all()
        assert scene.features["static"].shape == (12, 16)


def test_volleyball_noiseless_oracle_is_perfect():
    ds = generate(_vb_cfg(noise=0.0, seed=2), 200)
    for scene in ds.scenes:
        activity, actions = oracle_key_actor_predict(scene, ds.prototypes, ds.config.num_base)
        assert activity == scene.activity
        npt.assert_array_equal(actions, scene.actions)


def test_volleyball_mirroring_flips_side_labels():
    ds = generate(_vb_cfg(noise=0.0, seed=3), 100)
    for scene in ds.scenes:
        mirrored = scene.centers.copy()
        mirrored[:, 0] = 1.0 - mirrored[:, 0]
        flipped = type(scene)(scene.scene_id, scene.activity, scene.actions, mirrored,
                              scene.features)
        activity, _ = oracle_key_actor_predict(flipped, ds.prototypes, ds.config.num_base)
        base, side = divmod(scene.activity, 2)
        assert activity == base * 2 + (1 - side)


def test_volleyball_label_frequencies_roughly_uniform():
    ds = generate(_vb_cfg(seed=4), 4000)
    counts = np.bincount([s.activity for s in ds.scenes], minlength=8)
    freqs = counts / 4000
    assert np.abs(freqs - 1 / 8).max() <= 0.03


def test_majority_action_by_hand():
    assert majority_action([2, 2, 2]) == 2
    assert majority_action([0, 0, 1]) == 0
    with pytest.raises(DataError):
        majority_action([0, 1])


def test_collective_labels_self_consistent():
    ds = generate(_cc_cfg(seed=5), 300)
    for scene in ds.scenes:
        assert majority_action(scene.actions) == scene.activity
        assert 2 <= scene.n_actors <= 12


def test_generate_dispatch_and_rule_mismatch():
    assert generate(_cc_cfg(), 3).scenes[0].scene_id == 0
    assert generate(_vb_cfg(), 3, start_id=7).scenes[0].scene_id == 7


def test_same_seed_same_dataset():
    cfg = _vb_cfg(seed=6)
    assert generate(cfg, 20) == generate(cfg, 20)
    other = generate(_vb_cfg(seed=7), 20)
    assert generate(cfg, 20) != other


def test_complementary_prototypes_collapse_alternate_halves():
    cfg = _vb_cfg(branch_dims={"a": 8, "b": 8}, complementary=True, seed=8)
    ds = generate(cfg, 1)
    split = cfg.num_base // 2
    a, b = ds.prototypes["a"], ds.prototypes["b"]
    for row in range(1, split):
        npt.assert_array_equal(a[row], a[0])
    for row in range(split + 1, cfg.num_base):
        npt.assert_array_equal(b[row], b[split])
    # each branch keeps the other half distinct
    assert not np.array_equal(a[split], a[split + 1])
    assert not np.array_equal(b[0], b[1])


def test_corruption_degrades_the_oracle():
    clean = generate(_vb_cfg(noise=0.0, seed=9), 300)
    noisy = generate(_vb_cfg(noise=0.0, corrupt_prob=0.5, seed=9), 300)

    def acc(ds):
        hits = sum(
            oracle_key_actor_predict(s, ds.prototypes, ds.config.num_base)[0] == s.activity
            for s in ds.scenes
        )
        return hits / len(ds.scenes)

    assert acc(clean) == 1.0
    assert acc(noisy) < 0.9


def test_oracle_accuracy_decays_with_noise():
    accs = []
    for noise in (0.0, 0.5, 1.0):
        ds = generate(_vb_cfg(noise=noise, seed=10), 1000)
        hits = sum(
            oracle_key_actor_predict(s, ds.prototypes, ds.config.num_base)[0] == s.activity
            for s in ds.scenes
        )
        accs.append(hits / 1000)
    assert accs[0] == 1.0
    assert accs[1] <= accs[0] + 0.02
    assert accs[2] <= accs[1] + 0.02


def test_round_trip_both_rules(tmp_path):
    configs = [
        _vb_cfg(branch_dims={"rgb": 8, "static": 16}, complementary=True,
                corrupt_prob=0.25, n_actors=(3, 9), seed=11),
        _cc_cfg(seed=12),
    ]
    for i, cfg in enumerate(configs):
        ds = generate(cfg, 25)
        path = tmp_path / f"ds{i}.scenes"
        save_dataset(ds, path)
        assert load_dataset(path) == ds


def test_saves_are_byte_identical(tmp_path):
    ds = generate(_vb_cfg(seed=13), 10)
    p1, p2 = tmp_path / "a.scenes", tmp_path / "b.scenes"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _saved(tmp_path, cfg, count=3):
    """(path, metadata, {record name: array}) of a dataset save_dataset wrote."""
    path = tmp_path / "ds.scenes"
    save_dataset(generate(cfg, count), path)
    meta, records = read_container(path, MAGIC, VERSION, "dataset")
    return path, meta, dict(records)


def _rewrite(path, meta, records, version=VERSION):
    write_container(path, MAGIC, version, meta,
                    [(name, arr.shape, (arr,)) for name, arr in records.items()])


def test_truncated_file_is_a_parse_error(tmp_path):
    ds = generate(_vb_cfg(seed=14), 10)
    path = tmp_path / "ds.scenes"
    save_dataset(ds, path)
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * 0.6)])
    with pytest.raises(ParseError, match="truncated dataset") as exc:
        load_dataset(path)
    assert exc.value.path == str(path)


def test_tampered_label_is_a_parse_error(tmp_path):
    path, meta, records = _saved(tmp_path, _vb_cfg(seed=15), 5)
    records["activities"][2] = 999
    _rewrite(path, meta, records)
    with pytest.raises(ParseError, match="activities: scene 2: 999.0 outside"):
        load_dataset(path)


def test_bad_header_is_a_parse_error(tmp_path):
    path, meta, records = _saved(tmp_path, _vb_cfg(seed=15))
    _rewrite(path, meta, records, version=9)
    with pytest.raises(ParseError, match="header") as info:
        load_dataset(path)
    assert info.value.path == str(path) and info.value.line_no == 1


def test_v1_dataset_is_rejected_with_a_hint_to_regenerate(tmp_path):
    path = tmp_path / "ds.scenes"
    path.write_text("groupact-dataset v1\nrule key-actor-side\nt_frames 10\n")
    with pytest.raises(ParseError, match="regenerate") as exc:
        load_dataset(path)
    assert str(path) in str(exc.value)


def test_v2_text_dataset_fails_at_line_1_with_a_hint_to_regenerate(tmp_path):
    path = tmp_path / "ds.scenes"
    path.write_text("groupact-dataset v2\nrule key-actor-side\nnum_actions 9\n")
    with pytest.raises(ParseError, match="header GADS v3, got b'groupact'.*regenerate") as info:
        load_dataset(path)
    assert info.value.path == str(path) and info.value.line_no == 1


# Each case's v2 text block, as the record that holds it in v3.
_RECORDS = {"prototypes static": "prototypes/static", "centers": "centers",
            "features static": "features/static"}


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("block", ["prototypes static", "centers", "features static"])
def test_non_finite_values_are_a_parse_error_naming_the_line(tmp_path, token, block):
    # v3 has no lines: the error names the record and the row's scene (or action)
    path, meta, records = _saved(tmp_path, _vb_cfg(seed=17))
    name = _RECORDS[block]
    records[name][1, -1] = float(token)
    _rewrite(path, meta, records)
    where = "action 1" if name.startswith("prototypes") else "scene 0"
    with pytest.raises(ParseError, match=f"{name}: {where}: non-finite value") as info:
        load_dataset(path)
    assert info.value.path == str(path)


@pytest.mark.parametrize("block, width", [("prototypes static", 16), ("centers", 2),
                                          ("features static", 16)])
def test_long_row_then_short_row_names_the_long_one(tmp_path, block, width):
    # v3's form of a block with the right value count at the wrong width: a
    # record of the right size in another shape
    path, meta, records = _saved(tmp_path, _vb_cfg(seed=18))
    name = _RECORDS[block]
    rows = len(records[name])
    records[name] = records[name].reshape(2 * rows, width // 2)
    _rewrite(path, meta, records)
    with pytest.raises(ParseError, match=re.escape(
            f"{name}: expected shape ({rows}, {width}), got ({2 * rows}, {width // 2})")):
        load_dataset(path)


def test_float_lines_matches_the_per_value_f17_join():
    from groupact.fileio import f17, float_lines

    rng = np.random.default_rng(20)
    blocks = [
        np.array([[-0.0, 5e-324, 1e308], [0.1, 1 / 3, -1e-310]]),
        rng.standard_normal((7, 5)) * np.exp(rng.uniform(-700, 700, (7, 5))),
        rng.standard_normal((1, 1)),
    ]
    for block in blocks:
        want = "\n".join(",".join(f17(v) for v in row) for row in block)
        assert float_lines(block) == want
    assert float_lines(np.array([[-0.0, 5e-324]])) == "-0,4.9406564584124654e-324"


def test_bad_float_token_names_its_line(tmp_path):
    # v3 keeps float tokens only in the metadata; a bad one names its key
    for key in ("noise", "corrupt_prob"):
        path, meta, records = _saved(tmp_path, _vb_cfg(seed=19, branch_dims={"rgb": 8,
                                                                            "static": 16}))
        meta[key] = "1.2.3"
        _rewrite(path, meta, records)
        with pytest.raises(ParseError, match=f"{key}: bad value '1.2.3'") as info:
            load_dataset(path)
        assert info.value.path == str(path)


def test_negative_scene_count_is_a_parse_error_naming_the_line(tmp_path):
    # v3 holds the scene count as the length of the per-scene records; -3
    # written over it reads as a huge unsigned length, which must fail
    # naming the record instead of loading as an empty dataset
    path, _, records = _saved(tmp_path, _vb_cfg(seed=21), 2)
    data = path.read_bytes()
    at = data.index(b"sizes" + struct.pack("<IQ", 1, 2)) + len(b"sizes") + 4
    path.write_bytes(data[:at] + struct.pack("<q", -3) + data[at + 8:])
    with pytest.raises(ParseError, match=re.escape(
            f"truncated dataset: record 'sizes' of shape ({2**64 - 3},)")) as info:
        load_dataset(path)
    assert info.value.path == str(path)


def test_duplicate_scene_id_is_a_parse_error_naming_the_line(tmp_path):
    # v3 names the record and the repeated id
    path, meta, records = _saved(tmp_path, _vb_cfg(seed=22))
    records["ids"][2] = 0
    _rewrite(path, meta, records)
    with pytest.raises(ParseError, match="ids: duplicate scene id 0") as info:
        load_dataset(path)
    assert info.value.path == str(path)


@pytest.mark.parametrize("key, value, message", [
    ("noise", "0.5 junk", "noise: bad value '0.5 junk'"),
    ("corrupt_prob", "0 9", "corrupt_prob: bad value '0 9'"),
    ("complementary", "7", "complementary: bad value '7'"),
    ("noise", "abc", "noise: bad value 'abc'"),
    ("+branch.a", "8", "duplicate metadata key 'branch.a'"),
    # values that decode but that SceneConfig rejects, naming the field
    ("noise", "-1.0", "noise must be finite and >= 0"),
    ("corrupt_prob", "2.0", "corrupt_prob must lie in"),
    ("num_activities", "7", "num_activities: key-actor-side needs an even activity count"),
    ("num_actions", "1", "num_actions: need at least 2 actions"),
    ("n_actors.lo", "0", "n_actors: bad actor count range"),
    ("branch.b", "2", "needs dim >= 4"),
    # integers must be the canonical decimals a save writes
    ("seed", "1_0", "seed: bad value '1_0'"),
    ("seed", "007", "seed: bad value '007'"),
    ("n_actors.hi", "+12", r"n_actors.hi: bad value '\+12'"),
    ("ids", 1.5, "ids: entry 0: 1.5 is not an integer"),
    ("n_actors.hi", "1_2", "n_actors.hi: bad value '1_2'"),
    ("branch.a", "+8", r"branch.a: bad value '\+8'"),
    ("actions", 4.5, "actions: scene 0: 4.5 is not an integer"),
    ("noise", "0_5", "noise: bad value '0_5'"),
], ids=["noise-extra-cell", "corrupt-prob-extra-cell", "complementary-7", "noise-abc",
        "repeated-branch", "noise-negative", "corrupt-prob-2", "activities-odd", "one-action",
        "zero-actors", "dim-2", "seed-underscore", "seed-leading-zero", "actors-plus",
        "scene-arabic-digit", "n-actors-underscore", "dim-plus", "action-plus",
        "noise-underscore"])
def test_bad_header_field_is_a_parse_error_naming_its_line(tmp_path, key, value, message):
    # v3 names the metadata key (or, for a per-scene integer that is not an
    # integer, the record) where v2 named the line
    path, meta, records = _saved(tmp_path, _vb_cfg(seed=23, branch_dims={"a": 8, "b": 8}), 2)
    if key in records:
        records[key][0] = value
    elif key.startswith("+"):  # a second entry: a dict holds one, so it is renamed in the bytes
        meta["branch.X"] = value
    else:
        meta[key] = value
    _rewrite(path, meta, records)
    path.write_bytes(path.read_bytes().replace(b"branch.X", key[1:].encode()))
    with pytest.raises(ParseError, match=message) as info:
        load_dataset(path)
    assert info.value.path == str(path)


@pytest.mark.parametrize("damage, message", [
    (lambda meta, records: meta.pop("noise"), "missing metadata key 'noise'"),
    (lambda meta, records: records.pop("centers"),
     r"expected records \[.*\], got \[.*'actions', 'features/a'\]$"),
    (lambda meta, records: records.update(extra=np.zeros(1)), r"expected records .*'extra'\]$"),
], ids=["missing-key", "missing-record", "extra-record"])
def test_missing_metadata_or_unexpected_records_are_a_parse_error(tmp_path, damage, message):
    path, meta, records = _saved(tmp_path, _vb_cfg(seed=24, branch_dims={"a": 8}))
    damage(meta, records)
    _rewrite(path, meta, records)
    with pytest.raises(ParseError, match=message) as info:
        load_dataset(path)
    assert info.value.path == str(path)


THREE_BRANCHES = dict(rule="majority-action", num_actions=8, num_activities=8, n_actors=(6, 14),
                      branch_dims={"static": 16, "dynamic-rgb": 32, "dynamic-flow": 32})


@pytest.mark.parametrize("cfg", [
    _vb_cfg(branch_dims={"rgb": 8, "static": 16}, complementary=True, corrupt_prob=0.25,
            n_actors=(1, 9), seed=25),
    _cc_cfg(n_actors=1, seed=26),
    SceneConfig(**THREE_BRANCHES, seed=27),
    # records of many 32 KiB blocks, and scenes of up to 75 KiB of features
    _vb_cfg(n_actors=(1, 600), seed=29),
], ids=["ragged", "one-actor", "three-branches", "multi-block"])
def test_save_writes_the_whole_text_join(tmp_path, cfg):
    # v3's whole join: the scene-by-scene save writes the bytes of one
    # write_container of every record packed over all scenes
    ds = generate(cfg, 40, start_id=7)
    path = tmp_path / "ds.scenes"
    for scenes in (ds.scenes, []):
        part = SceneDataset(cfg, ds.prototypes, scenes)
        save_dataset(part, path)
        packed = {f"prototypes/{b}": ds.prototypes[b] for b in cfg.branch_names}
        packed["sizes"] = np.array([s.n_actors for s in scenes], float)
        packed["ids"] = np.array([s.scene_id for s in scenes], float)
        packed["activities"] = np.array([s.activity for s in scenes], float)
        rows = [[s.actions for s in scenes], [s.centers for s in scenes]]
        for b in cfg.branch_names:
            rows.append([s.features[b] for s in scenes])
        names = ["actions", "centers"] + [f"features/{b}" for b in cfg.branch_names]
        widths = [(), (2,)] + [(cfg.branch_dims[b],) for b in cfg.branch_names]
        for name, parts, width in zip(names, rows, widths):
            packed[name] = np.concatenate(parts).astype(float) if parts else np.zeros((0, *width))
        one_shot = tmp_path / "one-shot.scenes"
        lo, hi = cfg.actor_range
        meta = {"rule": cfg.rule, "num_actions": str(cfg.num_actions),
                "num_activities": str(cfg.num_activities), "noise": repr(cfg.noise),
                "complementary": str(int(cfg.complementary)),
                "corrupt_prob": repr(cfg.corrupt_prob), "seed": str(cfg.seed),
                "n_actors.lo": str(lo), "n_actors.hi": str(hi),
                **{f"branch.{b}": str(cfg.branch_dims[b]) for b in cfg.branch_names}}
        write_container(one_shot, MAGIC, VERSION, meta,
                        [(name, arr.shape, (arr,)) for name, arr in packed.items()])
        assert path.read_bytes() == one_shot.read_bytes()
        assert load_dataset(path) == part


def test_save_and_load_hold_one_scene_of_text_at_a_time(tmp_path):
    # a small late-fusion shape, so that tracing every allocation stays quick
    cfg = SceneConfig(**{**THREE_BRANCHES, "n_actors": (2, 4), "seed": 28,
                         "branch_dims": {"static": 4, "dynamic-rgb": 8, "dynamic-flow": 8}})
    ds = generate(cfg, 2000)
    path = tmp_path / "ds.scenes"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        save_dataset(ds, path)
        save_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        loaded = load_dataset(path)
        held, load_peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert loaded == ds
    # the whole text held once is 100% of the file; one scene's is about 0.05%
    size = path.stat().st_size
    assert save_peak < 0.1 * size, (save_peak, size)
    assert load_peak - held < 0.1 * size, (load_peak, held, size)


def test_bad_utf8_deep_in_the_file_names_its_line(tmp_path):
    # v3 names what holds the bytes: here the last record's name
    path, _, _ = _saved(tmp_path, _vb_cfg(seed=30, n_actors=(1, 5)), 6)
    data = path.read_bytes()
    at = data.rindex(b"features/static")
    path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    with pytest.raises(ParseError, match="record name is not UTF-8") as info:
        load_dataset(path)
    assert info.value.path == str(path)


@pytest.mark.parametrize("separator", [b"\x0c", b"\x1c", b"\r"])
def test_only_newlines_end_lines(tmp_path, separator):
    # str.splitlines() ends a line at these bytes; v3 has no lines, and a
    # value made of nothing but one of them loads back whole
    value = struct.unpack("<d", separator * 8)[0]  # tiny, positive: a valid center
    ds = generate(_vb_cfg(seed=32, n_actors=(1, 5)), 6)
    ds.scenes[1].centers[0, 1] = value
    path = tmp_path / "ds.scenes"
    save_dataset(ds, path)
    assert separator * 8 in path.read_bytes()
    loaded = load_dataset(path)
    assert loaded == ds and loaded.scenes[1].centers[0, 1] == value


def test_truncated_block_and_trailing_content_name_their_lines(tmp_path):
    # v3 names the record that a cut ends in, and counts the trailing bytes
    path, _, _ = _saved(tmp_path, _vb_cfg(seed=31, n_actors=(1, 5)), 6)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ParseError, match="truncated dataset: record 'features/static'"):
        load_dataset(path)
    path.write_bytes(data + b"scene 9\n")
    with pytest.raises(ParseError, match="8 trailing bytes after the dataset's last record"):
        load_dataset(path)


@pytest.mark.parametrize("record", ["sizes", "features/static"])
def test_forged_record_shape_is_a_parse_error_not_a_memory_error(tmp_path, record):
    path, _, records = _saved(tmp_path, _vb_cfg(seed=32))
    data = path.read_bytes()
    shape = records[record].shape
    dims = struct.pack(f"<I{len(shape)}Q", len(shape), *shape)
    at = data.index(record.encode() + dims) + len(record)
    forged = struct.pack(f"<I{len(shape)}Q", len(shape), *([2**40] * len(shape)))
    path.write_bytes(data[:at] + forged + data[at + len(dims):])
    with pytest.raises(ParseError, match=f"truncated dataset: record '{record}' of shape"):
        load_dataset(path)


def test_scene_id_float64_cannot_hold_exactly_is_a_save_error(tmp_path):
    ds = generate(_vb_cfg(seed=33), 2, start_id=2**53)  # ids 2**53 and 2**53 + 1
    with pytest.raises(DataError, match="scene_id is too large to store exactly"):
        save_dataset(ds, tmp_path / "ds.scenes")
    assert list(tmp_path.iterdir()) == []
