"""Actor-set models over one or more feature branches.

A branch (static pose, dynamic rgb, dynamic flow, ...) supplies one feature
vector per actor. A branch model embeds those vectors, optionally adds
position codes for the actor box centers, runs the transformer encoder over
the actor set, and reads out per-actor action logits plus, after max-pooling
the set, one group-activity logit row.

Branches can be fused three ways: early by summing embeddings, early by
concatenating embeddings behind a learned projection, or late by mixing the
per-branch class probabilities with fixed weights.

Every model runs a minibatch as one forward pass (forward_batch): the
actors of all scenes are packed into one row matrix, and only attention and
set pooling look at the scene boundaries. forward(inputs) is the batch of
one. A batch is a sequence of {branch: BranchInput} mappings, or a
SceneBatch of scenes, which pack_inputs packs straight from the scenes'
arrays; training and evaluation pass SceneBatches. Either way pack_inputs
checks the batch once, on the packed arrays.

A pass starts from the packed feature arrays: outside a recording Graph
every op on them runs untaped (see tensor), and only the outputs are
wrapped as Tensors; a recording pass hands its first op the features as a
Tensor. A pass raises NumericsError when its input features or its logits
are not finite. Late fusion, too, packs a batch once for all its members,
and branches that read the same centers share one position-code table per
forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericsError, ShapeError
from .posenc import apply_pe
from .tensor import (
    MODE_INFER,
    SetLayout,
    Tensor,
    add,
    box,
    concat_last_dim,
    matmul,
    max_over_sets,
    mul,
    recording,
    reshape,
    softmax_rows,
    unbox,
)
from .transformer import EncoderConfig, EncoderWeights, encode, xavier_uniform

PE_POST_EMBED = "post-embed"
PE_PRE_EMBED = "pre-embed"

EARLY_PE_AFTER_FUSION = "after-fusion"
EARLY_PE_PER_BRANCH = "per-branch"

FUSION_NONE = "none"
FUSION_EARLY_SUM = "early-sum"
FUSION_EARLY_CONCAT = "early-concat"
FUSION_LATE = "late"
FUSION_MODES = (FUSION_NONE, FUSION_EARLY_SUM, FUSION_EARLY_CONCAT, FUSION_LATE)

# Default mixing weights for late fusion, before normalisation: the static
# branch counts double.
DEFAULT_LATE_WEIGHTS = {"static": 2.0, "dynamic-rgb": 1.0, "dynamic-flow": 1.0}


def check_pe_scale(value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"pe_scale must be finite and positive, got {value}")
    return value


@dataclass(frozen=True)
class BranchConfig:
    feature_dim: int
    num_actions: int
    num_activities: int
    d_model: int = EncoderConfig.d_model
    num_heads: int = EncoderConfig.num_heads
    num_layers: int = EncoderConfig.num_layers
    d_ff: int = EncoderConfig.d_ff
    dropout: float = EncoderConfig.dropout
    use_pe: bool = True
    pe_scale: float = 100.0
    pe_stage: str = PE_POST_EMBED
    use_encoder: bool = True

    def __post_init__(self):
        if self.feature_dim <= 0:
            raise ConfigError(f"feature_dim must be positive, got {self.feature_dim}")
        if self.num_actions < 2 or self.num_activities < 2:
            raise ConfigError(
                f"need at least 2 actions and 2 activities, got {self.num_actions}/{self.num_activities}"
            )
        check_pe_scale(self.pe_scale)
        if self.pe_stage not in (PE_POST_EMBED, PE_PRE_EMBED):
            raise ConfigError(f"unknown pe_stage {self.pe_stage!r}")
        if self.use_pe and self.pe_stage == PE_POST_EMBED and self.d_model % 4 != 0:
            raise ConfigError(f"d_model must be divisible by 4 for position codes, got {self.d_model}")
        if self.use_pe and self.pe_stage == PE_PRE_EMBED and self.feature_dim % 4 != 0:
            raise ConfigError(
                f"feature_dim must be divisible by 4 for pre-embed position codes, got {self.feature_dim}"
            )
        self.encoder_config()  # validates d_model/num_heads/num_layers/d_ff/dropout

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(self.d_model, self.num_heads, self.num_layers, self.d_ff, self.dropout)


@dataclass
class BranchInput:
    """One scene as seen by one branch: per-actor features plus box centers."""

    features: np.ndarray  # (n, feature_dim)
    centers: np.ndarray  # (n, 2), coords in [0, 1]

    def __post_init__(self):
        # contiguous, as Tensor() makes it, so an untaped pass computes the same bits
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.features.ndim != 2:
            raise ShapeError(f"features must be (n, f), got {self.features.shape}")
        if self.centers.shape != (self.features.shape[0], 2):
            raise ShapeError(
                f"centers must be ({self.features.shape[0]}, 2), got {self.centers.shape}"
            )
        if self.features.shape[0] < 1:
            raise DataError("a scene needs at least one actor")


@dataclass
class Prediction:
    """Model outputs for one scene, or for a packed batch of scenes.

    For one scene, action_logits is (n, num_actions) and activity_logits is
    (num_activities,). A batch (sizes set to the per-scene actor counts)
    packs the actors of B scenes: action_logits is (N, num_actions) and
    activity_logits (B, num_activities). Under late fusion both hold mixed
    post-softmax probabilities instead of raw logits; argmax semantics are
    unchanged. attention is an AttentionRecord, or a dict keyed by branch
    under late fusion, or None when not recorded; a batch holds a list of
    those, one per scene.
    """

    action_logits: Tensor
    activity_logits: Tensor
    attention: object = None
    sizes: tuple | None = None


def predict(pred: Prediction):
    """(group_activity_id, per-actor action ids); ties go to the lowest id.

    For a batch: (group ids per scene, action ids per packed actor row).
    """
    groups = pred.activity_logits.data.argmax(axis=-1)
    actions = pred.action_logits.data.argmax(axis=1)
    return (int(groups) if pred.sizes is None else groups), actions


def pack_inputs(batch: Sequence[Mapping[str, BranchInput]], feature_dims: Mapping[str, int]):
    """Stack the scenes' inputs of each branch into one packed BranchInput.

    batch holds {branch: BranchInput} mappings, or is a SceneBatch, whose
    scenes' own arrays are packed with no BranchInput per scene. Returns
    ({branch: BranchInput over all actors}, per-scene actor counts). Every
    scene must carry every branch in feature_dims, with that width and one
    actor count across its branches, and every box center must lie in
    [0, 1]. This is the one place a model checks its input centers; every
    forward and forward_batch goes through it. The checks run once per
    batch, on the packed arrays and the per-scene row counts; when one
    fails, the scenes are checked one by one as mappings, so a SceneBatch
    raises what pack_inputs over its branch_inputs raises. Branches whose
    scenes hold the same centers arrays share one packed centers array,
    checked once. A batch of one is its own packing: its arrays are not
    copied.
    """
    if not batch:
        raise DataError("a batch needs at least one scene")
    packed = _pack(batch, feature_dims)
    if packed is None:
        batch = list(batch)  # a SceneBatch's branch_inputs: BranchInput checks each scene
        for inputs in batch:
            missing = [b for b in feature_dims if b not in inputs]
            if missing:
                raise DataError(f"scene is missing branches {missing}, has {sorted(inputs)}")
            n = None
            for b, dim in feature_dims.items():
                feats = inputs[b].features
                if feats.shape[1] != dim:
                    raise ShapeError(f"branch {b!r} expects feature_dim {dim}, got {feats.shape[1]}")
                if n is not None and feats.shape[0] != n:
                    raise ShapeError(f"branch {b!r} has {feats.shape[0]} actors, expected {n}")
                n = feats.shape[0]
        packed = _pack(batch, feature_dims)  # mappings that pass those checks pack
    inputs, sizes = packed
    checked_centers = set()
    for b in feature_dims:
        centers = inputs[b].centers
        if id(centers) not in checked_centers:
            checked_centers.add(id(centers))
            if not (centers.min() >= 0.0 and centers.max() <= 1.0):  # a NaN fails it too
                x, y = centers[~((centers >= 0.0) & (centers <= 1.0)).all(axis=1)][0]
                raise DataError(f"branch {b!r}: box center out of [0, 1]: ({x}, {y})")
    return inputs, sizes


def _joined(arrays) -> np.ndarray:
    """The scenes' arrays one after another as one float64 array; one array is its own."""
    if len(arrays) == 1:
        return np.ascontiguousarray(arrays[0], dtype=np.float64)
    return np.concatenate(arrays, dtype=np.float64)


def _pack(batch, feature_dims):
    """pack_inputs' packing and its shape checks: ({branch: BranchInput},
    sizes), or None when a scene lacks a branch or an array has the wrong
    shape. Each check runs once per batch: a packed array of the right
    shape and the lists of per-scene row counts cover every scene."""
    scenes = batch.scenes if isinstance(batch, SceneBatch) else None
    sizes, packed, by_parts = None, {}, {}
    try:
        for b, dim in feature_dims.items():
            if scenes is None:
                parts = [inputs[b] for inputs in batch]
                feats, centers = [p.features for p in parts], [p.centers for p in parts]
            else:
                feats, centers = [s.features[b] for s in scenes], [s.centers for s in scenes]
            key = tuple(map(id, centers))  # batch keeps every part alive, so ids are unique
            rows = list(map(len, feats))
            f = _joined(feats)
            c = by_parts[key] if key in by_parts else _joined(centers)
            if (f.ndim != 2 or f.shape[1] != dim or c.shape != (f.shape[0], 2) or min(rows) < 1
                    or (sizes is not None and rows != sizes) or list(map(len, centers)) != rows):
                return None
            sizes, by_parts[key] = rows, c
            # one mapping's BranchInput already holds the arrays packing makes
            packed[b] = parts[0] if scenes is None and len(parts) == 1 else BranchInput(f, c)
    except (KeyError, TypeError, ValueError):  # no such branch, a 0-d array, ndims that differ
        return None
    return packed, tuple(sizes)


def checked(pred: Prediction) -> Prediction:
    """pred, after checking that its outputs are finite (ops do not check theirs)."""
    if not (np.isfinite(pred.action_logits.data).all()
            and np.isfinite(pred.activity_logits.data).all()):
        raise NumericsError("non-finite model output")
    return pred


def one_scene(pred: Prediction) -> Prediction:
    """The only scene of a batch of one, as a one-scene Prediction."""
    g = pred.activity_logits
    return Prediction(pred.action_logits, box(reshape(unbox(g), (g.shape[1],))),
                      None if pred.attention is None else pred.attention[0])


def _checked_features(features: np.ndarray):
    """features, which a pass starts from, after the check Tensor() would make.
    A recording pass gets them as a Tensor, so its first op checks nothing again."""
    if not np.isfinite(features).all():
        raise NumericsError("non-finite actor features")
    return Tensor(features, _check=False) if recording() else features


def embed(features: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine projection of per-actor features into the model width."""
    return add(matmul(features, w), b)


class BranchWeights:
    """Weights of a single-branch model.

    Draw order from the init rng: embedding matrix, encoder layers, action
    classifier, activity classifier. Classifier heads are bare matrices.
    """

    def __init__(self, cfg: BranchConfig, rng):
        self.cfg = cfg
        self.embed_w = Tensor(xavier_uniform(rng, cfg.feature_dim, cfg.d_model), requires_grad=True)
        self.embed_b = Tensor(np.zeros(cfg.d_model), requires_grad=True)
        self.encoder = EncoderWeights(cfg.encoder_config(), rng) if cfg.use_encoder else None
        self.action_w = Tensor(xavier_uniform(rng, cfg.d_model, cfg.num_actions), requires_grad=True)
        self.activity_w = Tensor(xavier_uniform(rng, cfg.d_model, cfg.num_activities), requires_grad=True)

    def parameters(self):
        out = [("embed_w", self.embed_w), ("embed_b", self.embed_b)]
        if self.encoder is not None:
            out += [(f"enc/{name}", t) for name, t in self.encoder.parameters()]
        out += [("action_w", self.action_w), ("activity_w", self.activity_w)]
        return out


def _read_out(x: Tensor, w, layout: SetLayout, mode, rng, record_attention, centers=None,
              codes=None) -> Prediction:
    """Every model's read-out of embedded actor rows x: codes for centers (if
    given), w's encoder (if any), the action head per row and the activity head
    per set max. w: a BranchWeights or an EarlyFusionModel. codes: see apply_pe."""
    if centers is not None:
        x = apply_pe(x, centers, w.cfg.pe_scale, codes)
    rec = None
    if w.encoder is not None:
        x, rec = encode(x, w.encoder, mode, rng, record_attention, layout)
    action_logits = matmul(x, w.action_w)
    activity_logits = matmul(max_over_sets(x, layout), w.activity_w)
    return Prediction(box(action_logits), box(activity_logits), rec,
                      tuple(layout.sizes.tolist()))


def forward_branch(inp: BranchInput, w: BranchWeights, mode=MODE_INFER, rng=None,
                   record_attention=False, sizes=None, codes=None) -> Prediction:
    """One branch's forward pass. With sizes, inp packs that many scenes'
    actors row after row and the Prediction is a batch. The centers of inp
    are not checked here: models pass pack_inputs' output. codes: see apply_pe."""
    cfg = w.cfg
    if inp.features.shape[1] != cfg.feature_dim:
        raise ShapeError(
            f"branch expects feature_dim {cfg.feature_dim}, got {inp.features.shape[1]}"
        )
    if sizes is None:
        return one_scene(forward_branch(inp, w, mode, rng, record_attention,
                                        (inp.features.shape[0],), codes))
    layout = SetLayout.of(sizes, inp.features.shape[0])
    x = _checked_features(inp.features)
    if cfg.use_pe and cfg.pe_stage == PE_PRE_EMBED:
        x = apply_pe(x, inp.centers, cfg.pe_scale, codes)
    post_embed = cfg.use_pe and cfg.pe_stage == PE_POST_EMBED
    return _read_out(embed(x, w.embed_w, w.embed_b), w, layout, mode, rng, record_attention,
                     inp.centers if post_embed else None, codes)


class BranchModel:
    """Single-branch model bound to the branch name it reads from."""

    kind = "branch"

    def __init__(self, branch: str, cfg: BranchConfig, rng):
        self.branch = branch
        self.cfg = cfg
        self.weights = BranchWeights(cfg, rng)

    @property
    def encoder(self):
        return self.weights.encoder

    def forward(self, inputs: Mapping[str, BranchInput], mode=MODE_INFER, rng=None,
                record_attention=False) -> Prediction:
        return one_scene(self.forward_batch([inputs], mode, rng, record_attention))

    def forward_batch(self, batch: Sequence[Mapping[str, BranchInput]], mode=MODE_INFER,
                      rng=None, record_attention=False) -> Prediction:
        packed, sizes = pack_inputs(batch, {self.branch: self.cfg.feature_dim})
        return checked(forward_branch(packed[self.branch], self.weights, mode, rng,
                                      record_attention, sizes))

    def parameters(self):
        return self.weights.parameters()


class EarlyFusionModel:
    """Sum or concatenate per-branch embeddings, then run one encoder.

    Branch order is the sorted branch-name order everywhere (init draws,
    concatenation, parameter listing). Position codes are added either once
    after fusing ('after-fusion', default) or to every branch embedding
    ('per-branch').
    """

    def __init__(self, combine: str, feature_dims: Mapping[str, int], cfg: BranchConfig,
                 rng, early_pe: str = EARLY_PE_AFTER_FUSION):
        if combine not in ("sum", "concat"):
            raise ConfigError(f"combine must be 'sum' or 'concat', got {combine!r}")
        if early_pe not in (EARLY_PE_AFTER_FUSION, EARLY_PE_PER_BRANCH):
            raise ConfigError(f"unknown early_pe {early_pe!r}")
        if len(feature_dims) < 2:
            raise ConfigError(f"early fusion needs at least 2 branches, got {sorted(feature_dims)}")
        if cfg.pe_stage != PE_POST_EMBED:
            raise ConfigError("early fusion applies position codes at model width only")
        self.combine = combine
        self.early_pe = early_pe
        self.branches = sorted(feature_dims)
        self.feature_dims = {b: int(feature_dims[b]) for b in self.branches}
        self.cfg = cfg
        self.embeds = {}
        for b in self.branches:
            w = Tensor(xavier_uniform(rng, self.feature_dims[b], cfg.d_model), requires_grad=True)
            bias = Tensor(np.zeros(cfg.d_model), requires_grad=True)
            self.embeds[b] = (w, bias)
        if combine == "concat":
            self.proj = Tensor(
                xavier_uniform(rng, cfg.d_model * len(self.branches), cfg.d_model),
                requires_grad=True,
            )
        else:
            self.proj = None
        self.encoder = EncoderWeights(cfg.encoder_config(), rng) if cfg.use_encoder else None
        self.action_w = Tensor(xavier_uniform(rng, cfg.d_model, cfg.num_actions), requires_grad=True)
        self.activity_w = Tensor(xavier_uniform(rng, cfg.d_model, cfg.num_activities), requires_grad=True)

    @property
    def kind(self):
        return "early-" + self.combine

    def forward(self, inputs: Mapping[str, BranchInput], mode=MODE_INFER, rng=None,
                record_attention=False) -> Prediction:
        return one_scene(self.forward_batch([inputs], mode, rng, record_attention))

    def forward_batch(self, batch: Sequence[Mapping[str, BranchInput]], mode=MODE_INFER,
                      rng=None, record_attention=False) -> Prediction:
        packed, sizes = pack_inputs(batch, self.feature_dims)
        embedded, codes = [], {}
        for b in self.branches:
            w, bias = self.embeds[b]
            e = embed(_checked_features(packed[b].features), w, bias)
            if self.cfg.use_pe and self.early_pe == EARLY_PE_PER_BRANCH:
                e = apply_pe(e, packed[b].centers, self.cfg.pe_scale, codes)
            embedded.append(e)
        if self.combine == "sum":
            x = embedded[0]
            for e in embedded[1:]:
                x = add(x, e)
        else:
            x = matmul(concat_last_dim(embedded), self.proj)
        after_fusion = self.cfg.use_pe and self.early_pe == EARLY_PE_AFTER_FUSION
        layout = SetLayout.of(sizes, x.shape[0])
        return checked(_read_out(x, self, layout, mode, rng, record_attention,
                                 packed[self.branches[0]].centers if after_fusion else None,
                                 codes))

    def parameters(self):
        out = []
        for b in self.branches:
            w, bias = self.embeds[b]
            out += [(f"embed/{b}/w", w), (f"embed/{b}/b", bias)]
        if self.proj is not None:
            out.append(("proj", self.proj))
        if self.encoder is not None:
            out += [(f"enc/{name}", t) for name, t in self.encoder.parameters()]
        out += [("action_w", self.action_w), ("activity_w", self.activity_w)]
        return out


class LateFusionModel:
    """Fixed-weight mixture of per-branch class probabilities.

    Each branch keeps its own fully trained model; this wrapper softmaxes
    every branch's logits and sums them with the normalised mixing weights.
    """

    kind = "late"

    def __init__(self, models: Mapping[str, BranchModel], weights: Mapping[str, float] | None = None):
        if len(models) < 2:
            raise ConfigError(f"late fusion needs at least 2 branches, got {sorted(models)}")
        self.branches = sorted(models)
        self.models = {b: models[b] for b in self.branches}
        ref = self.models[self.branches[0]].cfg
        for b in self.branches[1:]:
            cfg = self.models[b].cfg
            if (cfg.num_actions, cfg.num_activities) != (ref.num_actions, ref.num_activities):
                raise ConfigError(f"branch {b!r} disagrees on class counts")
        raw = dict(DEFAULT_LATE_WEIGHTS) if weights is None else dict(weights)
        for b in self.branches:
            if b not in raw:
                raise ConfigError(f"no fusion weight for branch {b!r}")
            if not (math.isfinite(raw[b]) and raw[b] > 0):
                raise ConfigError(f"fusion weight for {b!r} must be finite and positive, got {raw[b]}")
        total = sum(raw[b] for b in self.branches)
        self.weights = {b: raw[b] / total for b in self.branches}

    def forward(self, inputs: Mapping[str, BranchInput], mode=MODE_INFER, rng=None,
                record_attention=False) -> Prediction:
        return one_scene(self.forward_batch([inputs], mode, rng, record_attention))

    def forward_batch(self, batch: Sequence[Mapping[str, BranchInput]], mode=MODE_INFER,
                      rng=None, record_attention=False) -> Prediction:
        packed, sizes = pack_inputs(batch, {b: self.models[b].cfg.feature_dim for b in self.branches})
        layout, codes = SetLayout.of(sizes, sum(sizes)), {}
        action_mix = activity_mix = None
        recs = {}
        for b in self.branches:
            pred = checked(forward_branch(packed[b], self.models[b].weights, mode, rng,
                                          record_attention, layout, codes))
            wgt = self.weights[b]
            act = mul(softmax_rows(unbox(pred.action_logits)), wgt)
            grp = mul(softmax_rows(unbox(pred.activity_logits)), wgt)
            action_mix = act if action_mix is None else add(action_mix, act)
            activity_mix = grp if activity_mix is None else add(activity_mix, grp)
            recs[b] = pred.attention
        attention = None
        if record_attention:
            attention = [{b: None if recs[b] is None else recs[b][i] for b in self.branches}
                         for i in range(len(sizes))]
        # every branch's logits passed checked(); mixing their softmaxes stays finite
        return Prediction(box(action_mix), box(activity_mix), attention, sizes)

    def parameters(self):
        out = []
        for b in self.branches:
            out += [(f"branch/{b}/{name}", t) for name, t in self.models[b].parameters()]
        return out


def branch_inputs(scene) -> dict:
    """View a generated scene as the per-branch inputs the models consume."""
    return {name: BranchInput(feats, scene.centers) for name, feats in scene.features.items()}


class SceneBatch:
    """Scenes (with .features and .centers, as ActorScene has them) as a batch
    for forward_batch. pack_inputs packs it straight from the scenes' arrays;
    read as a sequence, it holds each scene's branch_inputs."""

    def __init__(self, scenes):
        self.scenes = list(scenes)

    def __len__(self):
        return len(self.scenes)

    def __getitem__(self, i: int):
        return branch_inputs(self.scenes[i])

    def __iter__(self):
        return map(branch_inputs, self.scenes)
