"""Synthetic multi-actor scenes.

Instead of video frames, each actor carries one feature vector per branch,
drawn as an action prototype plus Gaussian noise. Two label rules are
provided. 'key-actor-side' designates one actor whose action picks a base
activity and whose horizontal position picks the left/right variant, so the
activity label is base * 2 + side. 'majority-action' labels the scene with
the action most actors perform, resampling action vectors until the top
count is unique.

Branch prototypes are drawn independently per branch, so different branches
carry different views of the same action. With `complementary` set, pairs of
key actions are additionally collapsed to a shared prototype per branch
(different pairs in different branches): no single branch can separate all
key actions, but together they can. `corrupt_prob` replaces an actor's
feature vector in one branch with pure noise at that rate, independently per
branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError, ParseError
# atomic_write_text stays bound here, though save_dataset writes through
# write_container: tracing tools wrap the name as this module binds it.
from .fileio import (  # noqa: F401
    META_CODECS,
    atomic_write_text,
    meta_decode,
    meta_encode,
    read_container,
    write_container,
)
from .seeding import DATA, rng_for

RULE_KEY_ACTOR = "key-actor-side"
RULE_MAJORITY = "majority-action"
RULES = (RULE_KEY_ACTOR, RULE_MAJORITY)

# Key actors stay clear of the x = 0.5 midline by this margin, on either side.
SIDE_MARGIN = 0.02

@dataclass(frozen=True)
class SceneConfig:
    rule: str
    num_actions: int
    num_activities: int
    n_actors: object = 12  # int, or (lo, hi) drawn uniformly per scene
    branch_dims: dict = field(default_factory=lambda: {"static": 16})
    noise: float = 0.5
    complementary: bool = False
    corrupt_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.rule not in RULES:
            raise ConfigError(f"unknown rule {self.rule!r}, expected one of {RULES}")
        lo, hi = self.actor_range
        if lo < 1 or hi < lo:
            raise ConfigError(f"n_actors: bad actor count range {self.n_actors!r}")
        if not self.branch_dims:
            raise ConfigError("need at least one branch")
        for name, dim in self.branch_dims.items():
            if not name or any(c.isspace() for c in name):
                raise ConfigError(f"bad branch name {name!r}")
            if int(dim) < 4:
                raise ConfigError(f"branch {name!r} needs dim >= 4, got {dim}")
        if self.num_actions < 2:
            raise ConfigError(f"num_actions: need at least 2 actions, got {self.num_actions}")
        if self.rule == RULE_KEY_ACTOR:
            if self.num_activities < 2 or self.num_activities % 2 != 0:
                raise ConfigError("num_activities: key-actor-side needs an even activity "
                                  f"count, got {self.num_activities}")
            if self.num_actions <= self.num_base:
                raise ConfigError("need background actions: num_actions "
                                  f"{self.num_actions} <= base activities {self.num_base}")
        else:
            if self.num_activities != self.num_actions:
                raise ConfigError("majority-action labels scenes with an "
                                  "action id, so num_activities must equal num_actions, got "
                                  f"{self.num_activities}/{self.num_actions}")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise}")
        if not 0.0 <= self.corrupt_prob <= 1.0:
            raise ConfigError(f"corrupt_prob must lie in [0, 1], got {self.corrupt_prob}")
        if self.complementary:
            if self.rule != RULE_KEY_ACTOR:
                raise ConfigError("complementary prototypes need the key-actor-side rule")
            if len(self.branch_dims) < 2:
                raise ConfigError("complementary prototypes need at least 2 branches")
            if self.num_base < 4:
                raise ConfigError("complementary prototypes need >= 4 base "
                                  f"activities, got {self.num_base}")
        # Canonical forms so loaded and freshly built configs compare equal.
        object.__setattr__(self, "n_actors", lo if lo == hi else (lo, hi))
        object.__setattr__(
            self, "branch_dims", {str(k): int(v) for k, v in self.branch_dims.items()}
        )

    @property
    def actor_range(self):
        if isinstance(self.n_actors, (tuple, list)):
            lo, hi = self.n_actors
            return int(lo), int(hi)
        return int(self.n_actors), int(self.n_actors)

    @property
    def num_base(self) -> int:
        """Base activities for the key-actor rule; key actions are 0..num_base-1."""
        return self.num_activities // 2

    @property
    def branch_names(self):
        return sorted(self.branch_dims)


@dataclass(eq=False)
class ActorScene:
    scene_id: int
    activity: int
    actions: np.ndarray  # (n,) int
    centers: np.ndarray  # (n, 2) in [0, 1]
    features: dict  # branch name -> (n, dim) float

    @property
    def n_actors(self) -> int:
        return len(self.actions)

    def __eq__(self, other):
        if not isinstance(other, ActorScene):
            return NotImplemented
        return (
            self.scene_id == other.scene_id
            and self.activity == other.activity
            and np.array_equal(self.actions, other.actions)
            and np.array_equal(self.centers, other.centers)
            and sorted(self.features) == sorted(other.features)
            and all(np.array_equal(self.features[b], other.features[b]) for b in self.features)
        )


@dataclass(eq=False)
class SceneDataset:
    config: SceneConfig
    prototypes: dict  # branch name -> (num_actions, dim) float
    scenes: list

    def __eq__(self, other):
        if not isinstance(other, SceneDataset):
            return NotImplemented
        return (
            self.config == other.config
            and sorted(self.prototypes) == sorted(other.prototypes)
            and all(np.array_equal(self.prototypes[b], other.prototypes[b]) for b in self.prototypes)
            and self.scenes == other.scenes
        )


def _draw_prototypes(cfg: SceneConfig, rng) -> dict:
    protos = {}
    for name in cfg.branch_names:
        protos[name] = rng.standard_normal((cfg.num_actions, cfg.branch_dims[name]))
    if cfg.complementary:
        # Branch i cannot separate the key actions in half (i % 2): those rows
        # share one prototype. The other branches cover for it.
        split = cfg.num_base // 2
        halves = (range(0, split), range(split, cfg.num_base))
        for i, name in enumerate(cfg.branch_names):
            merged = list(halves[i % 2])
            for action in merged[1:]:
                protos[name][action] = protos[name][merged[0]]
    return protos


def _draw_features(cfg, protos, actions, n, rng) -> dict:
    feats = {}
    for name in cfg.branch_names:
        dim = cfg.branch_dims[name]
        feats[name] = protos[name][actions] + cfg.noise * rng.standard_normal((n, dim))
    if cfg.corrupt_prob > 0:
        for name in cfg.branch_names:
            hit = rng.random(n) < cfg.corrupt_prob
            feats[name][hit] = rng.standard_normal((int(hit.sum()), cfg.branch_dims[name]))
    return feats


def _key_actor_scene(cfg, n, rng):
    """(activity, actions, centers) of one scene labelled by one key actor's
    action and field side. Draw order: base activity, side, key index,
    background actions, centers, then the key actor's constrained x."""
    base = int(rng.integers(cfg.num_base))
    side = int(rng.integers(2))  # 0 = left, 1 = right
    key = int(rng.integers(n))
    actions = rng.integers(cfg.num_base, cfg.num_actions, size=n)
    actions[key] = base
    centers = rng.uniform(0.0, 1.0, size=(n, 2))
    if side == 0:
        centers[key, 0] = rng.uniform(SIDE_MARGIN, 0.5 - SIDE_MARGIN)
    else:
        centers[key, 0] = rng.uniform(0.5 + SIDE_MARGIN, 1.0 - SIDE_MARGIN)
    return base * 2 + side, actions, centers


def _majority_scene(cfg, n, rng):
    """(activity, actions, centers) of one scene labelled by the action most
    actors perform. Action vectors with a tied top count are redrawn, so the
    winner is always unique."""
    while True:
        actions = rng.integers(0, cfg.num_actions, size=n)
        counts = np.bincount(actions, minlength=cfg.num_actions)
        top = counts.max()
        if (counts == top).sum() == 1:
            break
    return int(counts.argmax()), actions, rng.uniform(0.0, 1.0, size=(n, 2))


_RULE_SCENES = {RULE_KEY_ACTOR: _key_actor_scene, RULE_MAJORITY: _majority_scene}


def generate(cfg: SceneConfig, count: int, start_id: int = 0) -> SceneDataset:
    """count scenes with ids from start_id, labelled by cfg.rule.

    Draw order: the prototypes, then per scene the actor count, the rule's
    actions, centers and label, then features branch by branch.
    """
    rng = rng_for(cfg.seed, DATA)
    protos = _draw_prototypes(cfg, rng)
    rule_scene = _RULE_SCENES[cfg.rule]
    lo, hi = cfg.actor_range
    scenes = []
    for sid in range(start_id, start_id + count):
        n = lo if lo == hi else int(rng.integers(lo, hi + 1))
        activity, actions, centers = rule_scene(cfg, n, rng)
        feats = _draw_features(cfg, protos, actions, n, rng)
        scenes.append(ActorScene(sid, activity, actions, centers, feats))
    return SceneDataset(cfg, protos, scenes)


def majority_action(actions) -> int:
    """The unique most-common action; DataError when the top count is tied."""
    counts = np.bincount(np.asarray(actions))
    top = counts.max()
    if (counts == top).sum() != 1:
        raise DataError(f"no unique majority in {list(actions)}")
    return int(counts.argmax())


MAGIC = b"GADS"
VERSION = 3
_REGENERATE = ("; regenerate datasets written by older versions with 'groupact generate' "
               "and the same config")

# SceneConfig fields stored as one metadata value each, by their annotation
# (a string, see the future import); n_actors is stored as n_actors.lo and
# n_actors.hi, and branch_dims as one branch.<name> value per branch.
_SCALARS = tuple(f for f in fields(SceneConfig) if f.type in META_CODECS)
_EXACT = 2**53 - 1  # above this, a float64 may stand for two integers
_BIG = np.finfo(np.float64).max


def _column(name, values):
    """One float64 chunk of the scenes' values of field name, listed by
    values() when the writer gets to it."""
    col = np.array(values(), dtype=np.float64)
    if col.size and max(col.max(), -col.min()) > _EXACT:
        raise DataError(f"a scene's {name} is too large to store exactly")
    yield col


def save_dataset(ds: SceneDataset, path) -> None:
    """The dataset as records in fileio's container, magic GADS, version 3.

    Metadata holds the config. Records hold each branch's prototypes, then
    the scenes, one record per field packed over all scenes in order:
    sizes (actors per scene), ids, activities, actions, centers and each
    branch's features. Integers are stored as float64, which holds them
    exactly. Each scene's slice of a packed record is passed as one row
    block, as write_container requires of a record of several chunks:
    actions (n,), centers (n, 2), features (n, dim). write_container joins
    consecutive blocks into writes of at most the 32 KiB buffer, so beyond
    the dataset a save holds one such write (one scene, when a scene is
    larger). Two saves of equal datasets are byte-identical.
    """
    cfg, scenes = ds.config, ds.scenes
    names = cfg.branch_names
    lo, hi = cfg.actor_range
    meta = {f.name: meta_encode(f.type, getattr(cfg, f.name)) for f in _SCALARS}
    meta.update({"n_actors.lo": str(lo), "n_actors.hi": str(hi)})
    meta.update({f"branch.{b}": str(cfg.branch_dims[b]) for b in names})
    rows = sum(s.n_actors for s in scenes)

    def branch_rows(b):
        return (s.features[b] for s in scenes)

    records = [(f"prototypes/{b}", np.shape(ds.prototypes[b]), (ds.prototypes[b],))
               for b in names]
    # n_actors is len(actions) without the property's call
    records += [(name, (len(scenes),), _column(field, values)) for name, field, values in (
        ("sizes", "n_actors", lambda: [len(s.actions) for s in scenes]),
        ("ids", "scene_id", lambda: [s.scene_id for s in scenes]),
        ("activities", "activity", lambda: [s.activity for s in scenes]))]
    records += [("actions", (rows,), (s.actions for s in scenes)),
                ("centers", (rows, 2), (s.centers for s in scenes))]
    records += [(f"features/{b}", (rows, cfg.branch_dims[b]), branch_rows(b)) for b in names]
    # a 32 KiB buffer: fewer system calls than the default, and still a few
    # scenes' bytes per block
    write_container(path, MAGIC, VERSION, meta, records, buffer_bytes=1 << 15)


def _config(path, meta: dict) -> SceneConfig:
    keys = {f.name for f in _SCALARS} | {"n_actors.lo", "n_actors.hi"}
    branches = [key for key in meta if key.startswith("branch.")]
    unknown = [key for key in meta if key not in keys and not key.startswith("branch.")]
    if unknown:
        raise ParseError(path, 0, f"unknown metadata key {unknown[0]!r}")

    def value(key, kind):
        if key not in meta:
            raise ParseError(path, 0, f"missing metadata key {key!r}")
        try:
            return meta_decode(kind, meta[key])
        except ValueError:
            raise ParseError(path, 0, f"{key}: bad value {meta[key]!r}") from None

    lo, hi = value("n_actors.lo", "int"), value("n_actors.hi", "int")
    try:
        return SceneConfig(n_actors=lo if lo == hi else (lo, hi),
                           branch_dims={key.removeprefix("branch."): value(key, "int")
                                        for key in branches},
                           **{f.name: value(f.name, f.type) for f in _SCALARS})
    except ConfigError as exc:
        raise ParseError(path, 0, f"bad header: {exc}") from None


class _Records:
    """A loaded file's records, taken out one at a time and checked as whole
    arrays. An error names the file, the record and, where one is to blame,
    the first bad scene's id."""

    def __init__(self, path, arrays: dict):
        self.path, self.arrays = path, arrays
        self.ids = self.sizes = None  # set once checked

    def entry(self, at):
        return f"entry {at}"

    def scene(self, at):
        return f"scene {self.ids[at]}"

    def row_scene(self, at):
        return self.scene(int(np.searchsorted(np.cumsum(self.sizes), at, side="right")))

    def fail(self, name, msg, where=None, at=None):
        raise ParseError(self.path, 0, f"{name}: " + (f"{where(at)}: " if where else "") + msg)

    def floats(self, name, shape, where, lo=-_BIG, hi=_BIG):
        """The record, after checking its shape and that every value is finite
        and within [lo, hi]."""
        arr = self.arrays.pop(name)
        if arr.shape != shape:
            self.fail(name, f"expected shape {shape}, got {arr.shape}")
        # min and max carry a NaN through, so two reductions check every value
        if arr.size and not (lo <= arr.min() and arr.max() <= hi):
            rows = arr.reshape(len(arr), -1)
            ok = (rows >= lo) & (rows <= hi)
            at = int(np.argmin(ok.all(axis=1)))
            bad = float(rows[at][~ok[at]][0])
            msg = f"{bad!r} outside [{lo}, {hi}]" if math.isfinite(bad) else "non-finite value"
            self.fail(name, msg, where, at)
        return arr

    def ints(self, name, shape, where, lo, hi) -> np.ndarray:
        """The record as int64, after checking that each value is an integer
        in [lo, hi]."""
        arr = self.floats(name, shape, where, lo, hi)
        out = arr.astype(np.int64)
        if not np.array_equal(out, arr):
            at = int(np.argmax(out != arr))
            self.fail(name, f"{float(arr[at])!r} is not an integer", where, at)
        return out

    def unique(self, ids):
        order = np.argsort(ids, kind="stable")
        repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
        if repeats.size:
            self.fail("ids", f"duplicate scene id {ids[repeats.min()]}")
        return ids


def load_dataset(path) -> SceneDataset:
    """A dataset that save_dataset wrote. Its scenes are views of one array
    per record, and the checks run over whole records: shapes that agree
    with the config, finite values, centers in [0, 1], exact integers in
    range, actor counts within n_actors and unique scene ids."""
    meta, records = read_container(path, MAGIC, VERSION, "dataset", _REGENERATE)
    cfg = _config(path, meta)
    names = cfg.branch_names
    want = ([f"prototypes/{b}" for b in names] + ["sizes", "ids", "activities", "actions",
                                                  "centers"] + [f"features/{b}" for b in names])
    got = [name for name, _ in records]
    if got != want:
        raise ParseError(path, 0, f"expected records {want}, got {got}")
    r = _Records(path, dict(records))
    del records  # each float record is freed as it is converted
    prototypes = {b: r.floats(f"prototypes/{b}", (cfg.num_actions, cfg.branch_dims[b]),
                              lambda at: f"action {at}") for b in names}
    count = (r.arrays["sizes"].size,)
    r.ids = r.unique(r.ints("ids", count, r.entry, -_EXACT, _EXACT))
    r.sizes = r.ints("sizes", count, r.scene, *cfg.actor_range)
    rows = int(r.sizes.sum())
    activities = r.ints("activities", count, r.scene, 0, cfg.num_activities - 1)
    actions = r.ints("actions", (rows,), r.row_scene, 0, cfg.num_actions - 1)
    centers = r.floats("centers", (rows, 2), r.row_scene, 0.0, 1.0)
    feats = {b: r.floats(f"features/{b}", (rows, cfg.branch_dims[b]), r.row_scene)
             for b in names}
    scenes, at = [], 0
    for sid, activity, n in zip(r.ids.tolist(), activities.tolist(), r.sizes.tolist()):
        end = at + n
        scenes.append(ActorScene(sid, activity, actions[at:end], centers[at:end],
                                 {b: feats[b][at:end] for b in names}))
        at = end
    return SceneDataset(cfg, prototypes, scenes)
