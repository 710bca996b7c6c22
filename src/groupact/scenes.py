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
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import ConfigError, DataError, ParseError
# atomic_write_text stays bound here, though save_dataset streams through
# atomic_writer: tracing tools wrap the name as this module binds it.
from .fileio import atomic_write_text, atomic_writer, f17, float_lines, reading  # noqa: F401
from .seeding import DATA, rng_for

RULE_KEY_ACTOR = "key-actor-side"
RULE_MAJORITY = "majority-action"
RULES = (RULE_KEY_ACTOR, RULE_MAJORITY)

# Key actors stay clear of the x = 0.5 midline by this margin, on either side.
SIDE_MARGIN = 0.02

FORMAT_HEADER = "groupact-dataset v2"


class _FieldError(ConfigError):
    """A SceneConfig check that failed, with the field it is reported at (the
    later one in a dataset file's header, when two fields disagree)."""

    def __init__(self, field: str, msg: str):
        super().__init__(msg)
        self.field = field


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
            raise _FieldError("rule", f"unknown rule {self.rule!r}, expected one of {RULES}")
        lo, hi = self.actor_range
        if lo < 1 or hi < lo:
            raise _FieldError("n_actors", f"bad actor count range {self.n_actors!r}")
        if not self.branch_dims:
            raise _FieldError("branches", "need at least one branch")
        for name, dim in self.branch_dims.items():
            if not name or any(c.isspace() for c in name):
                raise _FieldError(f"branch {name}", f"bad branch name {name!r}")
            if int(dim) < 4:
                raise _FieldError(f"branch {name}", f"branch {name!r} needs dim >= 4, got {dim}")
        if self.num_actions < 2:
            raise _FieldError("num_actions", f"need at least 2 actions, got {self.num_actions}")
        if self.rule == RULE_KEY_ACTOR:
            if self.num_activities < 2 or self.num_activities % 2 != 0:
                raise _FieldError("num_activities", "key-actor-side needs an even activity "
                                  f"count, got {self.num_activities}")
            if self.num_actions <= self.num_base:
                raise _FieldError("num_activities", "need background actions: num_actions "
                                  f"{self.num_actions} <= base activities {self.num_base}")
        else:
            if self.num_activities != self.num_actions:
                raise _FieldError("num_activities", "majority-action labels scenes with an "
                                  "action id, so num_activities must equal num_actions, got "
                                  f"{self.num_activities}/{self.num_actions}")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise _FieldError("noise", f"noise must be finite and >= 0, got {self.noise}")
        if not 0.0 <= self.corrupt_prob <= 1.0:
            raise _FieldError("corrupt_prob",
                              f"corrupt_prob must lie in [0, 1], got {self.corrupt_prob}")
        if self.complementary:
            if self.rule != RULE_KEY_ACTOR:
                raise _FieldError("complementary",
                                  "complementary prototypes need the key-actor-side rule")
            if len(self.branch_dims) < 2:
                raise _FieldError("complementary",
                                  "complementary prototypes need at least 2 branches")
            if self.num_base < 4:
                raise _FieldError("complementary", "complementary prototypes need >= 4 base "
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


def _scene_text(scene: ActorScene, names) -> str:
    lines = [
        f"scene {scene.scene_id}",
        f"activity {scene.activity}",
        f"actors {scene.n_actors}",
        "actions " + " ".join(str(int(a)) for a in scene.actions),
        "centers",
        float_lines(scene.centers),
    ]
    for name in names:
        lines.append(f"features {name}")
        lines.append(float_lines(scene.features[name]))
    return "\n".join(lines) + "\n"


def save_dataset(ds: SceneDataset, path) -> None:
    """Textual dump: self-describing header, prototypes, then scene records.

    Floats are written with 17 significant digits, so a load sees bit-equal
    values and two saves of equal datasets are byte-identical. Each scene's
    text is written as soon as it is formatted, so a save holds one scene's
    text at a time, not the file's.
    """
    cfg = ds.config
    names = cfg.branch_names
    lo, hi = cfg.actor_range
    lines = [
        FORMAT_HEADER,
        f"rule {cfg.rule}",
        f"num_actions {cfg.num_actions}",
        f"num_activities {cfg.num_activities}",
        f"n_actors {lo} {hi}",
        f"noise {f17(cfg.noise)}",
        f"complementary {int(cfg.complementary)}",
        f"corrupt_prob {f17(cfg.corrupt_prob)}",
        f"seed {cfg.seed}",
        f"branches {len(cfg.branch_dims)}",
    ]
    for name in names:
        lines.append(f"branch {name} {cfg.branch_dims[name]}")
    for name in names:
        lines.append(f"prototypes {name}")
        lines.append(float_lines(ds.prototypes[name]))
    lines.append(f"scenes {len(ds.scenes)}")
    with atomic_writer(path) as f:
        f.write(("\n".join(lines) + "\n").encode("utf-8"))
        for scene in ds.scenes:
            f.write(_scene_text(scene, names).encode("utf-8"))
        f.write(b"end\n")


def _bit(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(cell)
    return cell == "1"


def _int(cell: str) -> int:
    """A canonical ASCII decimal: what str() of the int gives back, so a value
    loads only from the bytes a save writes for it."""
    value = int(cell)
    if str(value) != cell:
        raise ValueError(cell)
    return value


def _float(cell: str) -> float:
    """float() of cell, without what float() forgives but a save never writes:
    digit-group underscores and non-ASCII digits."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(cell)
    return float(cell)


class _LineReader:
    """The lines of an open binary file, read one at a time (a float block at a
    time); no is the number of the line last read."""

    def __init__(self, path, f):
        self.path = path
        self.f = f
        self.no = 0

    def _text(self, raw: bytes, no: int) -> str:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(self.path, no, "not UTF-8 text") from None

    def next(self) -> str:
        raw = next(self.f, None)
        if raw is None:
            self.fail("unexpected end of file", self.no + 1)
        self.no += 1
        return self._text(raw, self.no)

    def fail(self, msg, no=None):
        raise ParseError(self.path, self.no if no is None else no, msg)

    def keyword(self, word: str) -> list:
        cells = self.next().split()
        if not cells or cells[0] != word:
            self.fail(f"expected {word!r}")
        return cells[1:]

    def field(self, word: str, parse=_int):
        """The one value of a `word value` line, through parse; a value it
        rejects with ValueError fails at this line, naming word."""
        cells = self.keyword(word)
        if len(cells) != 1:
            self.fail(f"{word}: expected one value, got {len(cells)}")
        try:
            return parse(cells[0])
        except ValueError:
            self.fail(f"{word}: bad value {cells[0]!r}")

    def _float_row(self, raw: bytes, width: int, no: int) -> np.ndarray:
        self._text(raw, no)  # a line that is not UTF-8 fails as such
        if not raw.isascii() or b"_" in raw:
            self.fail("bad float", no)
        cells = raw.split()
        if len(cells) != width:
            self.fail(f"expected {width} values, got {len(cells)}", no)
        try:
            return np.array([float(c) for c in cells])
        except ValueError:
            self.fail("bad float", no)

    def float_rows(self, count: int, width: int) -> np.ndarray:
        """The next count rows of width finite floats, as one (count, width) array
        converted in one call. Its shape checks every row's width, so a long row next
        to a short one cannot shift values between rows; a block that fails is read
        row by row to name the first bad line."""
        first = self.no + 1
        raw = list(islice(self.f, count))
        self.no += len(raw)
        try:
            # ASCII without underscores, as a save writes it; numpy parses
            # bytes tokens as float() does
            block = b"".join(raw)
            if not block.isascii() or b"_" in block:
                raise ValueError
            rows = np.array(list(map(bytes.split, raw)), float)
            if rows.shape != (count, width):
                raise ValueError
        except ValueError:  # a ragged block, a bad token or the end of the file
            rows = [self._float_row(line, width, no) for no, line in enumerate(raw, start=first)]
            if len(rows) < count:
                self.fail("unexpected end of file", self.no + 1)
            rows = np.stack(rows)
        if not np.isfinite(rows).all():
            bad = int(np.argmin(np.isfinite(rows).all(axis=1)))
            self.fail("non-finite value", first + bad)
        return rows


def load_dataset(path) -> SceneDataset:
    """A dataset that save_dataset wrote, read line by line from the file, so a
    load holds one line (or one float block) of text at a time."""
    with reading(path) as f:
        return _read_dataset(_LineReader(path, f))


def _read_dataset(r: _LineReader) -> SceneDataset:
    header = r.next().rstrip("\r\n")
    if header != FORMAT_HEADER:
        # v1 files hold the same scenes plus a t_frames line generation never read
        r.fail(f"expected header {FORMAT_HEADER!r}, got {header[:40]!r}; regenerate "
               "datasets written by older versions with 'groupact generate'")
    at = {}  # header field -> its line, where a value SceneConfig rejects is reported

    def header_field(word, parse=_int):
        value = r.field(word, parse)
        at[word] = r.no
        return value

    rule = header_field("rule", str)
    num_actions = header_field("num_actions")
    num_activities = header_field("num_activities")
    lo_hi = r.keyword("n_actors")
    if len(lo_hi) != 2:
        r.fail("n_actors: expected two values")
    try:
        lo, hi = _int(lo_hi[0]), _int(lo_hi[1])
    except ValueError:
        r.fail("n_actors: bad integer")
    at["n_actors"] = r.no
    noise = header_field("noise", _float)
    complementary = header_field("complementary", _bit)
    corrupt_prob = header_field("corrupt_prob", _float)
    seed = header_field("seed")
    n_branches = header_field("branches")
    branch_dims = {}
    for _ in range(n_branches):
        cells = r.keyword("branch")
        if len(cells) != 2:
            r.fail("branch: expected name and dim")
        if cells[0] in branch_dims:
            r.fail(f"duplicate branch {cells[0]!r}")
        try:
            branch_dims[cells[0]] = _int(cells[1])
        except ValueError:
            r.fail("branch: bad dim")
        at["branch " + cells[0]] = r.no
    try:
        cfg = SceneConfig(
            rule=rule,
            num_actions=num_actions,
            num_activities=num_activities,
            n_actors=lo if lo == hi else (lo, hi),
            branch_dims=branch_dims,
            noise=noise,
            complementary=complementary,
            corrupt_prob=corrupt_prob,
            seed=seed,
        )
    except _FieldError as exc:
        r.fail(f"bad header: {exc}", at[exc.field])
    prototypes = {}
    for name in cfg.branch_names:
        got = r.keyword("prototypes")
        if got != [name]:
            r.fail(f"expected prototypes for {name!r}")
        prototypes[name] = r.float_rows(num_actions, branch_dims[name])
    n_scenes = r.field("scenes")
    if n_scenes < 0:
        r.fail(f"negative scene count {n_scenes}")
    scenes, seen = [], set()
    for _ in range(n_scenes):
        sid = r.field("scene")
        if sid in seen:
            r.fail(f"duplicate scene id {sid}")
        seen.add(sid)
        activity = r.field("activity")
        if not 0 <= activity < num_activities:
            r.fail(f"activity {activity} out of range")
        n = r.field("actors")
        if not lo <= n <= hi:
            r.fail(f"actor count {n} outside [{lo}, {hi}]")
        cells = r.keyword("actions")
        if len(cells) != n:
            r.fail(f"expected {n} actions, got {len(cells)}")
        try:
            ids = list(map(int, cells))
        except ValueError:
            r.fail("bad action id")
        if list(map(str, ids)) != cells:
            r.fail("bad action id")
        actions = np.array(ids)
        if actions.min() < 0 or actions.max() >= num_actions:
            r.fail("action id out of range")
        r.keyword("centers")
        centers = r.float_rows(n, 2)
        if centers.min() < 0.0 or centers.max() > 1.0:
            r.fail("center outside [0, 1]")
        feats = {}
        for name in cfg.branch_names:
            got = r.keyword("features")
            if got != [name]:
                r.fail(f"expected features for {name!r}")
            feats[name] = r.float_rows(n, branch_dims[name])
        scenes.append(ActorScene(sid, activity, actions, centers, feats))
    r.keyword("end")
    if next(r.f, None) is not None:
        r.fail("trailing content after 'end'", r.no + 1)
    return SceneDataset(cfg, prototypes, scenes)
