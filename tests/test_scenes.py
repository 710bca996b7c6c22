import numpy as np
import numpy.testing as npt
import pytest

from groupact.errors import ConfigError, DataError, ParseError
from groupact.scenes import (
    SIDE_MARGIN,
    SceneConfig,
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
], ids=["noise-extra-cell", "corrupt-prob-extra-cell", "complementary-7", "noise-abc",
        "repeated-branch"])
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
