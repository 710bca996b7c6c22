import re
from dataclasses import fields
from pathlib import Path

import pytest

from groupact.config import (
    RunConfig,
    config_from_pairs,
    load_run_config,
    parse_config_text,
)
from groupact.errors import ConfigError

SAMPLE = """
# scene setup
rule = key-actor-side
num_actions = 5
num_activities = 4
n_actors = 2-9
branches = rgb:8, static:16
noise = 0.25
lr_schedule = 0:0.01, 500:0.001
use_pe = off
ablate_seeds = 0, 1, 2
"""


def test_parse_config_text_pairs():
    pairs = parse_config_text(SAMPLE)
    assert pairs["rule"] == "key-actor-side"
    assert pairs["branches"] == "rgb:8, static:16"
    assert "scene_count" not in pairs


def test_parse_rejects_garbage_lines():
    with pytest.raises(ConfigError, match="line.txt:2"):
        parse_config_text("a = 1\nnot an assignment\n", source="line.txt")


def test_parse_rejects_duplicates():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_unknown_keys_are_listed():
    with pytest.raises(ConfigError, match="colour, flavour"):
        config_from_pairs({"colour": "red", "flavour": "sour"})


def test_value_errors_name_the_key():
    with pytest.raises(ConfigError, match="num_actions"):
        config_from_pairs({"num_actions": "many"})
    with pytest.raises(ConfigError, match="use_pe"):
        config_from_pairs({"use_pe": "maybe"})
    with pytest.raises(ConfigError, match="rule"):
        config_from_pairs({"rule": "telepathy"})
    with pytest.raises(ConfigError, match="ablate_fusion"):
        config_from_pairs({"ablate_fusion": "none, mid"})
    for value in ("nan", "inf", "0", "-1"):
        with pytest.raises(ConfigError, match="pe_scale"):
            config_from_pairs({"pe_scale": value})


def test_typed_values_and_defaults():
    cfg = config_from_pairs(parse_config_text(SAMPLE))
    assert isinstance(cfg, RunConfig)
    assert cfg.n_actors == (2, 9)
    assert cfg.branches == {"rgb": 8, "static": 16}
    assert cfg.noise == 0.25
    assert cfg.lr_schedule == ((0, 0.01), (500, 0.001))
    assert cfg.use_pe is False
    assert cfg.ablate_seeds == (0, 1, 2)
    # untouched keys fall back to their defaults
    assert cfg.d_model == 128
    assert cfg.optimizer == "sgd-momentum"


def test_single_actor_count_collapses():
    cfg = config_from_pairs({"n_actors": "7"})
    assert cfg.n_actors == 7


def test_builders_produce_component_configs():
    cfg = config_from_pairs(parse_config_text(SAMPLE))
    scene = cfg.scene_config()
    assert scene.num_actions == 5 and scene.actor_range == (2, 9)
    branch = cfg.branch_config(16, 5, 4, dropout=0.0)
    assert branch.feature_dim == 16 and branch.dropout == 0.0
    assert branch.use_pe is False
    training = cfg.train_config(total_iterations=10)
    assert training.total_iterations == 10
    assert training.lr_schedule == ((0, 0.01), (500, 0.001))


def test_load_run_config_with_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nnum_layers = 2\n")
    cfg = load_run_config(path, overrides={"seed": "9"})
    assert cfg.seed == 9
    assert cfg.num_layers == 2
    assert load_run_config(None).seed == 0


def test_schedule_parse_errors():
    with pytest.raises(ConfigError):
        config_from_pairs({"lr_schedule": "10:0.01"})  # must start at 0
    with pytest.raises(ConfigError):
        config_from_pairs({"lr_schedule": "0:0.01, 5"})


@pytest.mark.parametrize("key, value, name", [
    ("branches", "static:16, static:8", "static"),
    ("late_weights", "static:1, static:2", "static"),
    ("lr_schedule", "0:0.1, 0:0.2", "0"),
], ids=["branches", "late_weights", "lr_schedule"])
def test_repeated_name_in_a_list_names_the_key_and_the_name(key, value, name):
    with pytest.raises(ConfigError, match=f"config key '{key}': {key} names '{name}' twice"):
        config_from_pairs({key: value})


@pytest.mark.parametrize("key, value, message", [
    ("dropout", "abc", "expected a number, got 'abc'"),
    ("branches", "", "branches must name at least one branch"),
], ids=["float-word", "no-branches"])
def test_value_refusal_names_the_key(key, value, message):
    with pytest.raises(ConfigError) as info:
        config_from_pairs({key: value})
    assert str(info.value) == f"config key '{key}': {message}"


def _readme_config_rows():
    """(keys, default cell) of every `| key | default | meaning |` table row."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    rows, in_table = [], False
    for line in lines:
        if line.strip() == "| key | default | meaning |":
            in_table = True
        elif not line.startswith("|"):
            in_table = False
        elif in_table and not line.startswith("| ---"):
            key_cell, default_cell = [c.strip() for c in line.strip("|").split("|")][:2]
            rows.append((re.findall(r"`([^`]+)`", key_cell), default_cell.replace("`", "")))
    return rows


def test_readme_config_tables_match_the_schema():
    rows = _readme_config_rows()
    documented = [key for keys, _ in rows for key in keys]
    assert sorted(documented) == sorted(f.name for f in fields(RunConfig))
    defaults, parsers = RunConfig(), {f.name: f.metadata["parse"] for f in fields(RunConfig)}
    for keys, cell in rows:
        if cell in ("", "all"):
            texts = [""] * len(keys)
        else:
            texts = cell.split(", ") if len(keys) > 1 else [cell]
        assert len(texts) == len(keys), (keys, cell)
        for key, text in zip(keys, texts):
            assert parsers[key](text) == getattr(defaults, key), key

