import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from groupact.errors import ConfigError, DataError, ParseError
from groupact.fileio import f17
from groupact.scenes import (
    FORMAT_HEADER,
    SIDE_MARGIN,
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


def test_truncated_file_is_a_parse_error(tmp_path):
    ds = generate(_vb_cfg(seed=14), 10)
    path = tmp_path / "ds.scenes"
    save_dataset(ds, path)
    text = path.read_text()
    path.write_text(text[: int(len(text) * 0.6)])
    with pytest.raises(ParseError) as exc:
        load_dataset(path)
    assert exc.value.line_no > 0


def test_tampered_label_is_a_parse_error(tmp_path):
    ds = generate(_vb_cfg(seed=15), 5)
    path = tmp_path / "ds.scenes"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    target = next(i for i, line in enumerate(lines) if line.startswith("activity "))
    lines[target] = "activity 999"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        load_dataset(path)


def test_bad_header_is_a_parse_error(tmp_path):
    path = tmp_path / "ds.scenes"
    save_dataset(generate(_vb_cfg(seed=15), 3), path)
    lines = path.read_text().splitlines()
    lines[0] = "groupact-dataset v9"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="header") as info:
        load_dataset(path)
    assert info.value.path == str(path) and info.value.line_no == 1


def test_v1_dataset_is_rejected_with_a_hint_to_regenerate(tmp_path):
    ds = generate(_vb_cfg(seed=16), 3)
    path = tmp_path / "ds.scenes"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    lines[0] = "groupact-dataset v1"
    lines.insert(lines.index(f"seed {ds.config.seed}"), "t_frames 10")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="regenerate") as exc:
        load_dataset(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("block", ["prototypes static", "centers", "features static"])
def test_non_finite_values_are_a_parse_error_naming_the_line(tmp_path, token, block):
    path = tmp_path / "ds.scenes"
    save_dataset(generate(_vb_cfg(seed=17), 3), path)
    lines = path.read_text().splitlines()
    no = lines.index(block) + 2  # 1-based number of the block's second row
    cells = lines[no - 1].split()
    cells[-1] = token
    lines[no - 1] = " ".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="non-finite") as info:
        load_dataset(path)
    assert info.value.path == str(path) and info.value.line_no == no


@pytest.mark.parametrize("block, width", [("prototypes static", 16), ("centers", 2),
                                          ("features static", 16)])
def test_long_row_then_short_row_names_the_long_one(tmp_path, block, width):
    # the block total stays right, so only a per-row width check catches it
    path = tmp_path / "ds.scenes"
    save_dataset(generate(_vb_cfg(seed=18), 3), path)
    lines = path.read_text().splitlines()
    no = lines.index(block) + 2  # 1-based number of the block's second row
    long_row, short_row = lines[no - 1].split(), lines[no].split()
    long_row.append(short_row.pop(0))
    lines[no - 1], lines[no] = " ".join(long_row), " ".join(short_row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"expected {width} values, got {width + 1}") as info:
        load_dataset(path)
    assert info.value.path == str(path) and info.value.line_no == no


def test_bad_float_token_names_its_line(tmp_path):
    path = tmp_path / "ds.scenes"
    save_dataset(generate(_vb_cfg(seed=19, branch_dims={"rgb": 8, "static": 16}), 3), path)
    lines = path.read_text().splitlines()
    no = lines.index("features static") + 4  # 1-based number of the block's third row
    cells = lines[no - 1].split()
    cells[5] = "1.2.3"
    lines[no - 1] = " ".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="bad float") as info:
        load_dataset(path)
    assert info.value.path == str(path) and info.value.line_no == no


def test_float_lines_matches_the_per_value_f17_join():
    from groupact.fileio import f17, float_lines

    rng = np.random.default_rng(20)
    blocks = [
        np.array([[-0.0, 5e-324, 1e308], [0.1, 1 / 3, -1e-310]]),
        rng.standard_normal((7, 5)) * np.exp(rng.uniform(-700, 700, (7, 5))),
        rng.standard_normal((1, 1)),
    ]
    for block in blocks:
        for sep in (" ", ","):
            want = "\n".join(sep.join(f17(v) for v in row) for row in block)
            assert float_lines(block, sep=sep) == want
    assert float_lines(np.array([[-0.0, 5e-324]])) == "-0 4.9406564584124654e-324"


def test_negative_scene_count_is_a_parse_error_naming_the_line(tmp_path):
    path = tmp_path / "ds.scenes"
    save_dataset(generate(_vb_cfg(seed=21), 2), path)
    lines = path.read_text().splitlines()
    no = lines.index("scenes 2") + 1
    lines[no - 1:] = ["scenes -3", "end"]  # loaded as an empty dataset before the check
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="negative scene count -3") as info:
        load_dataset(path)
    assert info.value.path == str(path) and info.value.line_no == no


def test_duplicate_scene_id_is_a_parse_error_naming_the_line(tmp_path):
    path = tmp_path / "ds.scenes"
    save_dataset(generate(_vb_cfg(seed=22), 3), path)
    lines = path.read_text().splitlines()
    no = lines.index("scene 2") + 1
    lines[no - 1] = "scene 0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="duplicate scene id 0") as info:
        load_dataset(path)
    assert info.value.path == str(path) and info.value.line_no == no


@pytest.mark.parametrize("prefix, line, message", [
    ("noise ", "noise 0.5 junk", "noise: expected one value, got 2"),
    ("corrupt_prob ", "corrupt_prob 0 9", "corrupt_prob: expected one value, got 2"),
    ("complementary ", "complementary 7", "complementary: bad value '7'"),
    ("noise ", "noise abc", "noise: bad value 'abc'"),
    ("branch b ", "branch a 8", "duplicate branch 'a'"),
    # values that parse but that SceneConfig rejects, at their own line
    ("noise ", "noise -1", "noise must be finite and >= 0"),
    ("corrupt_prob ", "corrupt_prob 2", "corrupt_prob must lie in"),
    ("num_activities ", "num_activities 7", "even activity count"),
    ("num_actions ", "num_actions 1", "need at least 2 actions"),
    ("n_actors ", "n_actors 0 3", "bad actor count range"),
    ("branch b ", "branch b 2", "needs dim >= 4"),
    # integers must be the canonical decimals a save writes
    ("seed ", "seed 1_0", "seed: bad value '1_0'"),
    ("seed ", "seed 007", "seed: bad value '007'"),
    ("actors ", "actors +4", r"actors: bad value '\+4'"),
    ("scene ", "scene \u0661", "scene: bad value"),
    ("n_actors ", "n_actors 12 1_2", "n_actors: bad integer"),
    ("branch a ", "branch a +8", "branch: bad dim"),
    ("actions ", "actions " + " ".join(["+4"] * 12), "bad action id"),
    ("noise ", "noise 0_5", "noise: bad value '0_5'"),
], ids=["noise-extra-cell", "corrupt-prob-extra-cell", "complementary-7", "noise-abc",
        "repeated-branch", "noise-negative", "corrupt-prob-2", "activities-odd", "one-action",
        "zero-actors", "dim-2", "seed-underscore", "seed-leading-zero", "actors-plus",
        "scene-arabic-digit", "n-actors-underscore", "dim-plus", "action-plus",
        "noise-underscore"])
def test_bad_header_field_is_a_parse_error_naming_its_line(tmp_path, prefix, line, message):
    path = tmp_path / "ds.scenes"
    save_dataset(generate(_vb_cfg(seed=23, branch_dims={"a": 8, "b": 8}), 2), path)
    lines = path.read_text().splitlines()
    no = next(i for i, text in enumerate(lines, start=1) if text.startswith(prefix))
    lines[no - 1] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=message) as info:
        load_dataset(path)
    assert info.value.path == str(path) and info.value.line_no == no


@pytest.mark.parametrize("first_cells", [["1_0.5", "0.5"], ["\u0661", "0.5"], ["0.5\u00a00.5"]],
                         ids=["underscore", "arabic-digit", "no-break-space"])
@pytest.mark.parametrize("block", ["prototypes static", "centers", "features static"])
def test_float_block_takes_only_ascii_tokens_without_underscores(tmp_path, first_cells, block):
    path = tmp_path / "ds.scenes"
    save_dataset(generate(_vb_cfg(seed=24), 3), path)
    lines = path.read_text().splitlines()
    no = lines.index(block) + 3  # 1-based number of the block's third row
    cells = lines[no - 1].split()
    cells[:2] = first_cells
    lines[no - 1] = " ".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="bad float") as info:
        load_dataset(path)
    assert info.value.path == str(path) and info.value.line_no == no


def _whole_text(ds):
    """The file save_dataset writes, as one join of every line (the layout
    of the format, built value by value)."""
    cfg = ds.config
    lo, hi = cfg.actor_range
    names = cfg.branch_names

    def rows(block):
        return [" ".join(f17(v) for v in row) for row in block]

    lines = [FORMAT_HEADER, f"rule {cfg.rule}", f"num_actions {cfg.num_actions}",
             f"num_activities {cfg.num_activities}", f"n_actors {lo} {hi}",
             f"noise {f17(cfg.noise)}", f"complementary {int(cfg.complementary)}",
             f"corrupt_prob {f17(cfg.corrupt_prob)}", f"seed {cfg.seed}",
             f"branches {len(names)}"]
    lines += [f"branch {b} {cfg.branch_dims[b]}" for b in names]
    for b in names:
        lines += [f"prototypes {b}"] + rows(ds.prototypes[b])
    lines.append(f"scenes {len(ds.scenes)}")
    for s in ds.scenes:
        lines += [f"scene {s.scene_id}", f"activity {s.activity}", f"actors {s.n_actors}",
                  "actions " + " ".join(map(str, s.actions)), "centers"] + rows(s.centers)
        for b in names:
            lines += [f"features {b}"] + rows(s.features[b])
    return "\n".join(lines + ["end"]) + "\n"


THREE_BRANCHES = dict(rule="majority-action", num_actions=8, num_activities=8, n_actors=(6, 14),
                      branch_dims={"static": 16, "dynamic-rgb": 32, "dynamic-flow": 32})


@pytest.mark.parametrize("cfg", [
    _vb_cfg(branch_dims={"rgb": 8, "static": 16}, complementary=True, corrupt_prob=0.25,
            n_actors=(1, 9), seed=25),
    _cc_cfg(n_actors=1, seed=26),
    SceneConfig(**THREE_BRANCHES, seed=27),
], ids=["ragged", "one-actor", "three-branches"])
def test_save_writes_the_whole_text_join(tmp_path, cfg):
    ds = generate(cfg, 40, start_id=7)
    path = tmp_path / "ds.scenes"
    save_dataset(ds, path)
    assert path.read_bytes() == _whole_text(ds).encode()
    empty = SceneDataset(cfg, ds.prototypes, [])
    save_dataset(empty, path)
    assert path.read_bytes() == _whole_text(empty).encode()
    assert load_dataset(path) == empty


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


def _saved_lines(tmp_path, seed):
    path = tmp_path / "ds.scenes"
    save_dataset(generate(_vb_cfg(seed=seed, n_actors=(1, 5)), 6), path)
    return path, path.read_bytes().split(b"\n")[:-1]


def test_crlf_copy_loads_to_an_equal_dataset(tmp_path):
    path, lines = _saved_lines(tmp_path, 29)
    crlf = tmp_path / "crlf.scenes"
    crlf.write_bytes(b"\r\n".join(lines) + b"\r\n")
    assert load_dataset(crlf) == load_dataset(path)


def test_bad_utf8_deep_in_the_file_names_its_line(tmp_path):
    path, lines = _saved_lines(tmp_path, 30)
    no = len(lines) - 3
    lines[no - 1] = lines[no - 1][:5] + b"\xff" + lines[no - 1][5:]
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ParseError, match="not UTF-8 text") as info:
        load_dataset(path)
    assert info.value.path == str(path) and info.value.line_no == no


@pytest.mark.parametrize("separator", [b"\x0c", b"\x1c", b"\r"])
def test_only_newlines_end_lines(tmp_path, separator):
    # str.splitlines() also ends a line at these; two rows joined by one read as one row
    path, lines = _saved_lines(tmp_path, 32)
    no = lines.index(b"centers") + 2
    lines[no - 1:no + 1] = [lines[no - 1] + separator + lines[no]]
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ParseError, match="expected 2 values, got [34]") as info:
        load_dataset(path)
    assert info.value.line_no == no


def test_truncated_block_and_trailing_content_name_their_lines(tmp_path):
    path, lines = _saved_lines(tmp_path, 31)
    no = len(lines) - 2  # the last scene's last feature row
    path.write_bytes(b"\n".join(lines[:no - 1]) + b"\n")
    with pytest.raises(ParseError, match="unexpected end of file") as info:
        load_dataset(path)
    assert info.value.line_no == no
    path.write_bytes(b"\n".join(lines + [b"scene 9"]) + b"\n")
    with pytest.raises(ParseError, match="trailing content after 'end'") as info:
        load_dataset(path)
    assert info.value.line_no == len(lines) + 1
