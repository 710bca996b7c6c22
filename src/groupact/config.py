"""Flat key=value run configuration.

One `key = value` per line, `#` starts a comment. Unknown keys are rejected,
as are duplicates within a file. Command-line flags (currently just the
seed) override file values. The same RunConfig feeds every subcommand; each
command checks the keys it actually needs.

RunConfig declares every key once, as a field that carries its parser. A
default that a component config owns is read from that class; the literal
ones are the CLI's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError, ParseError
from .fileio import read_text
from .model import (
    DEFAULT_LATE_WEIGHTS,
    EARLY_PE_AFTER_FUSION,
    EARLY_PE_PER_BRANCH,
    FUSION_MODES,
    FUSION_NONE,
    PE_POST_EMBED,
    PE_PRE_EMBED,
    BranchConfig,
    check_pe_scale,
)
from .scenes import RULE_KEY_ACTOR, RULES, SceneConfig
from .training import OPT_ADAM, OPT_SGD_MOMENTUM, TrainConfig


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "on", "yes"):
        return True
    if t in ("0", "false", "off", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _parse_actor_range(text: str):
    t = text.strip()
    if "-" in t:
        lo, hi = t.split("-", 1)
        return (_parse_int(lo), _parse_int(hi))
    return _parse_int(t)


def _colon_pairs(text: str, key: str, shape: str) -> list:
    """The `a:b` items of a comma-separated list, split at the first colon; no
    two items may share their a."""
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ConfigError(f"{key} entries look like {shape}, got {item!r}")
        a, b = item.split(":", 1)
        a = a.strip()
        if a in out:
            raise ConfigError(f"{key} names {a!r} twice")
        out[a] = b
    return list(out.items())


def _parse_branch_dims(text: str) -> dict:
    out = {name: _parse_int(dim) for name, dim in _colon_pairs(text, "branches", "name:dim")}
    if not out:
        raise ConfigError("branches must name at least one branch")
    return out


def _parse_weights(text: str) -> dict:
    return {name: _parse_float(w) for name, w in _colon_pairs(text, "late_weights", "name:weight")}


def _parse_schedule(text: str) -> tuple:
    pairs = _colon_pairs(text, "lr_schedule", "iteration:lr")
    schedule = [(_parse_int(it), _parse_float(lr)) for it, lr in pairs]
    # TrainConfig holds the schedule rules; check them while the key is named.
    return TrainConfig(lr_schedule=schedule).lr_schedule


def _list_of(parse):
    """Parser of a comma-separated list; blank items are skipped."""
    return lambda text: tuple(parse(c) for c in text.split(",") if c.strip())


def _scene_ids(text: str) -> tuple:
    ids = _list_of(_parse_int)(text)
    if len(set(ids)) < len(ids):
        sid = next(sid for i, sid in enumerate(ids) if sid in ids[:i])
        raise ConfigError(f"scene_ids names {sid} twice")
    return ids


def _choice(options):
    def parse(text: str) -> str:
        t = text.strip()
        if t not in options:
            raise ConfigError(f"expected one of {', '.join(options)}, got {t!r}")
        return t

    return parse


def _identity(text: str) -> str:
    return text.strip()


def _key(parse, default):
    """One config key: a RunConfig field that carries its value parser."""
    if isinstance(default, dict):
        return field(default_factory=lambda: dict(default), metadata={"parse": parse})
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class RunConfig:
    # scene generation
    rule: str = _key(_choice(RULES), RULE_KEY_ACTOR)
    num_actions: int = _key(_parse_int, 9)
    num_activities: int = _key(_parse_int, 8)
    n_actors: object = _key(_parse_actor_range, SceneConfig.n_actors)
    branches: dict = _key(_parse_branch_dims,
                          SceneConfig.__dataclass_fields__["branch_dims"].default_factory())
    noise: float = _key(_parse_float, SceneConfig.noise)
    complementary: bool = _key(_parse_bool, SceneConfig.complementary)
    corrupt_prob: float = _key(_parse_float, SceneConfig.corrupt_prob)
    scene_count: int = _key(_parse_int, 0)
    train_fraction: float = _key(_parse_float, 0.723)
    # model
    d_model: int = _key(_parse_int, BranchConfig.d_model)
    num_heads: int = _key(_parse_int, BranchConfig.num_heads)
    num_layers: int = _key(_parse_int, BranchConfig.num_layers)
    d_ff: int = _key(_parse_int, BranchConfig.d_ff)
    dropout: float = _key(_parse_float, BranchConfig.dropout)
    use_pe: bool = _key(_parse_bool, BranchConfig.use_pe)
    pe_scale: float = _key(lambda text: check_pe_scale(_parse_float(text)),
                           BranchConfig.pe_scale)
    pe_stage: str = _key(_choice((PE_POST_EMBED, PE_PRE_EMBED)), BranchConfig.pe_stage)
    use_encoder: bool = _key(_parse_bool, BranchConfig.use_encoder)
    fusion: str = _key(_choice(FUSION_MODES), FUSION_NONE)
    branch: str = _key(_identity, "static")
    fusion_branches: tuple = _key(_list_of(_identity), ())
    late_weights: dict = _key(_parse_weights, DEFAULT_LATE_WEIGHTS)
    early_pe: str = _key(_choice((EARLY_PE_AFTER_FUSION, EARLY_PE_PER_BRANCH)),
                         EARLY_PE_AFTER_FUSION)
    # training
    optimizer: str = _key(_choice((OPT_SGD_MOMENTUM, OPT_ADAM)), TrainConfig.optimizer)
    momentum: float = _key(_parse_float, TrainConfig.momentum)
    beta1: float = _key(_parse_float, TrainConfig.beta1)
    beta2: float = _key(_parse_float, TrainConfig.beta2)
    adam_eps: float = _key(_parse_float, TrainConfig.adam_eps)
    lr_schedule: tuple = _key(_parse_schedule, TrainConfig.lr_schedule)
    batch_size: int = _key(_parse_int, TrainConfig.batch_size)
    # 0, not TrainConfig's 20000: the CLI trains only when asked to
    total_iterations: int = _key(_parse_int, 0)
    lambda_g: float = _key(_parse_float, TrainConfig.lambda_g)
    lambda_a: float = _key(_parse_float, TrainConfig.lambda_a)
    seed: int = _key(_parse_int, TrainConfig.seed)
    # data files
    train_data: str = _key(_identity, "")
    test_data: str = _key(_identity, "")
    scene_ids: tuple = _key(_scene_ids, ())
    # ablation axes; empty means "keep the configured value"
    ablate_layers: tuple = _key(_list_of(_parse_int), ())
    ablate_heads: tuple = _key(_list_of(_parse_int), ())
    ablate_pe: tuple = _key(_list_of(_parse_bool), ())
    ablate_encoder: tuple = _key(_list_of(_parse_bool), ())
    ablate_fusion: tuple = _key(_list_of(_choice(FUSION_MODES)), ())
    ablate_seeds: tuple = _key(_list_of(_parse_int), ())

    def _build(self, cls, **given):
        """A component config from the keys it shares with this one, then `given`."""
        shared = {f.name: getattr(self, f.name) for f in fields(cls) if f.name in _KEYS}
        return cls(**{**shared, **given})

    def scene_config(self) -> SceneConfig:
        return self._build(SceneConfig, branch_dims=self.branches)

    def branch_config(self, feature_dim: int, num_actions: int, num_activities: int,
                      **overrides) -> BranchConfig:
        return self._build(BranchConfig, feature_dim=feature_dim, num_actions=num_actions,
                           num_activities=num_activities, **overrides)

    def train_config(self, **overrides) -> TrainConfig:
        return self._build(TrainConfig, **overrides)


_KEYS = {f.name: f.metadata["parse"] for f in fields(RunConfig)}


def parse_config_text(text: str, source="<config>") -> dict:
    """Raw key -> value-string pairs from one config file."""
    pairs = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{no}: expected key = value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"{source}:{no}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def config_from_pairs(pairs: dict) -> RunConfig:
    unknown = sorted(set(pairs) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, parse in _KEYS.items():
        if key in pairs:
            try:
                values[key] = parse(pairs[key])
            except ConfigError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from None
    return RunConfig(**values)


def load_run_config(path=None, overrides=None) -> RunConfig:
    """Merge an optional config file with command-line override pairs."""
    pairs = {}
    if path is not None:
        try:
            text = read_text(path)
        except ParseError as exc:
            raise ConfigError(str(exc)) from None
        pairs.update(parse_config_text(text, source=str(path)))
    if overrides:
        pairs.update({k: str(v) for k, v in overrides.items()})
    return config_from_pairs(pairs)
