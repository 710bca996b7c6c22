"""Actor-set models over one or more feature branches.

A branch (static pose, dynamic rgb, dynamic flow, ...) supplies one feature
vector per actor. A branch model embeds those vectors, optionally adds
position codes for the actor box centers, runs the transformer encoder over
the actor set, and reads out per-actor action logits plus, after max-pooling
the set, one group-activity logit row.

Branches can be fused three ways: early by summing embeddings, early by
concatenating embeddings behind a learned projection, or late by mixing the
per-branch class probabilities with fixed weights.

Every model runs a minibatch as one forward pass (forward_batch) over a
sequence of scenes: objects with a .features mapping from branch to an
(n, dim) array and one (n, 2) .centers array, as ActorScene has them.
pack_inputs packs the actors of all scenes into one row matrix per branch
and checks the batch once; only attention and set pooling look at the scene
boundaries. forward(inputs) runs one scene, given as a {branch: BranchInput}
mapping, as a batch of one; it is the one place such a mapping enters, and
the branches a model reads must hold centers of the same values.

A pass starts from the packed feature arrays: outside a recording Graph
every op on them runs untaped (see tensor), and only the outputs are
wrapped as Tensors; a recording pass hands its first op the features as a
Tensor. A pass raises NumericsError when its input features or its logits
are not finite. Late fusion's members share one config apart from
feature_dim, and a pass runs them all as one grouped pass: each member
embeds its own features, and the embeddings are stacked over the members
(see tensor). Wrapping the members moves their weights and gradients into
two arrays, a row per member, so every pass, taped or not, reads the weights
past the embedding in place, through (G, ...) views built once, and
backward adds into the members' own gradients. A member weight whose .data
or .grad was rebound since is refused; an optimizer built after wrapping
updates the arrays in place (see training). The pass's outputs, attention,
gradients and dropout masks are the bits of running the members one by one.
Every branch reads the one packed centers array, so branches of one width
share one position-code table per forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericsError, ShapeError, UsageError
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
    recording,
    reshape,
    softmax_rows,
    stack,
    unbox,
    weighted_sum,
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


def pack_inputs(scenes: Sequence, feature_dims: Mapping[str, int]):
    """Pack a batch of scenes into one row matrix per branch.

    scenes: objects with a .features mapping from branch to an (n, dim) array
    and one (n, 2) .centers array, as ActorScene has them. Returns ({branch:
    (N, dim) features}, (N, 2) centers, per-scene actor counts), the scenes'
    arrays one after another in float64. Every scene must carry every branch
    in feature_dims, with that width and at least one actor, and every box
    center must lie in [0, 1]; this is the one place a model checks its input
    centers. The checks run once per batch, on the packed arrays and the
    per-scene row counts; when one fails, the scenes are checked one by one
    and the first fault is raised. A batch of one is its own packing: its
    contiguous float64 arrays are not copied.
    """
    if not scenes:
        raise DataError("a batch needs at least one scene")
    packed = _pack(scenes, feature_dims)
    if packed is None:
        _fault(scenes, feature_dims)
    centers = packed[1]
    if not (centers.min() >= 0.0 and centers.max() <= 1.0):  # a NaN fails it too
        x, y = centers[~((centers >= 0.0) & (centers <= 1.0)).all(axis=1)][0]
        raise DataError(f"branch {next(iter(feature_dims))!r}: box center out of [0, 1]: "
                        f"({x}, {y})")
    return packed


def _joined(arrays) -> np.ndarray:
    """The scenes' arrays one after another as one float64 array; one array is its own."""
    if len(arrays) == 1:
        return np.ascontiguousarray(arrays[0], dtype=np.float64)
    return np.concatenate(arrays, dtype=np.float64)


def _pack(scenes, feature_dims):
    """pack_inputs' packing and its shape checks, or None when a scene lacks
    a branch or an array has the wrong shape. Each check runs once per
    batch: a packed array of the right shape and the lists of per-scene row
    counts cover every scene."""
    try:
        parts = [s.centers for s in scenes]
        rows = list(map(len, parts))
        centers = _joined(parts)
        features = {}
        for b, dim in feature_dims.items():
            feats = [s.features[b] for s in scenes]
            f = features[b] = _joined(feats)
            if f.ndim != 2 or f.shape[1] != dim or list(map(len, feats)) != rows:
                return None
    except (KeyError, TypeError, ValueError):  # no such branch, a 0-d array, ndims that differ
        return None
    if centers.shape != (len(f), 2) or min(rows) < 1:
        return None
    return features, centers, tuple(rows)


def _fault(scenes, feature_dims):
    """Raise the error of the first scene that does not pack: a missing branch,
    or what BranchInput raises on its arrays, or a wrong feature width."""
    for s in scenes:
        missing = [b for b in feature_dims if b not in s.features]
        if missing:
            raise DataError(f"scene is missing branches {missing}, has {sorted(s.features)}")
        for b, dim in feature_dims.items():
            width = BranchInput(s.features[b], s.centers).features.shape[1]
            if width != dim:
                raise ShapeError(f"branch {b!r} expects feature_dim {dim}, got {width}")
    # each scene's arrays convert alone, but not together (str arrays, say)
    raise ShapeError("batch arrays do not pack")


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


def _read_out(x: Tensor, w, layout: SetLayout, mode, rng, record_attention) -> Prediction:
    """Every model's read-out of embedded actor rows x, position codes already
    added: w's encoder (if any), the action head per row and the activity head
    per set max. w: a BranchWeights, such as late fusion's grouped weights, or
    an EarlyFusionModel."""
    rec = None
    if w.encoder is not None:
        x, rec = encode(x, w.encoder, mode, rng, record_attention, layout)
    action_logits = matmul(x, w.action_w)
    activity_logits = matmul(max_over_sets(x, layout), w.activity_w)
    return Prediction(box(action_logits), box(activity_logits), rec,
                      tuple(layout.sizes.tolist()))


def _embedded(features: np.ndarray, centers: np.ndarray, w: BranchWeights, codes) -> Tensor:
    """A branch's embedded actor rows, with its position codes added before or
    after the embedding as its config says. codes: see apply_pe."""
    cfg = w.cfg
    x = _checked_features(features)
    if cfg.use_pe and cfg.pe_stage == PE_PRE_EMBED:
        x = apply_pe(x, centers, cfg.pe_scale, codes)
    x = embed(x, w.embed_w, w.embed_b)
    if cfg.use_pe and cfg.pe_stage == PE_POST_EMBED:
        x = apply_pe(x, centers, cfg.pe_scale, codes)
    return x


def forward_branch(inp: BranchInput, w: BranchWeights, mode=MODE_INFER, rng=None,
                   record_attention=False, sizes=None) -> Prediction:
    """One branch's forward pass. With sizes, inp packs that many scenes'
    actors row after row and the Prediction is a batch. The centers of inp
    are not checked here: models pass pack_inputs' output."""
    cfg = w.cfg
    if inp.features.shape[1] != cfg.feature_dim:
        raise ShapeError(
            f"branch expects feature_dim {cfg.feature_dim}, got {inp.features.shape[1]}"
        )
    if sizes is None:
        return one_scene(forward_branch(inp, w, mode, rng, record_attention,
                                        (inp.features.shape[0],)))
    layout = SetLayout.of(sizes, inp.features.shape[0])
    return _read_out(_embedded(inp.features, inp.centers, w, None), w, layout, mode, rng,
                     record_attention)


def _forward(self, inputs: Mapping[str, BranchInput], mode=MODE_INFER, rng=None,
             record_attention=False) -> Prediction:
    """Every model's forward: one scene, given as a {branch: BranchInput}
    mapping, run as a batch of one. Its centers are those of the branches the
    model reads, which must hold the same values, else DataError names two."""
    read = [b for b in self.branches if b in inputs]
    centers = inputs[read[0]].centers if read else None
    for b in read[1:]:
        if inputs[b].centers is not centers and not np.array_equal(inputs[b].centers, centers):
            raise DataError(f"branches {read[0]!r} and {b!r} hold different box centers")
    scene = SimpleNamespace(features={b: inp.features for b, inp in inputs.items()},
                            centers=centers)
    return one_scene(self.forward_batch([scene], mode, rng, record_attention))


class BranchModel:
    """Single-branch model bound to the branch name it reads from."""

    kind = "branch"

    def __init__(self, branch: str, cfg: BranchConfig, rng):
        self.branch = branch
        self.branches = [branch]
        self.cfg = cfg
        self.weights = BranchWeights(cfg, rng)

    @property
    def encoder(self):
        return self.weights.encoder

    forward = _forward

    def forward_batch(self, scenes: Sequence, mode=MODE_INFER, rng=None,
                      record_attention=False) -> Prediction:
        feats, centers, sizes = pack_inputs(scenes, {self.branch: self.cfg.feature_dim})
        return checked(forward_branch(BranchInput(feats[self.branch], centers), self.weights,
                                      mode, rng, record_attention, sizes))

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
        self.proj = None if combine == "sum" else Tensor(
            xavier_uniform(rng, cfg.d_model * len(self.branches), cfg.d_model), requires_grad=True)
        self.encoder = EncoderWeights(cfg.encoder_config(), rng) if cfg.use_encoder else None
        self.action_w = Tensor(xavier_uniform(rng, cfg.d_model, cfg.num_actions), requires_grad=True)
        self.activity_w = Tensor(xavier_uniform(rng, cfg.d_model, cfg.num_activities), requires_grad=True)

    @property
    def kind(self):
        return "early-" + self.combine

    forward = _forward

    def forward_batch(self, scenes: Sequence, mode=MODE_INFER, rng=None,
                      record_attention=False) -> Prediction:
        feats, centers, sizes = pack_inputs(scenes, self.feature_dims)
        embedded, codes = [], {}
        for b in self.branches:
            w, bias = self.embeds[b]
            e = embed(_checked_features(feats[b]), w, bias)
            if self.cfg.use_pe and self.early_pe == EARLY_PE_PER_BRANCH:
                e = apply_pe(e, centers, self.cfg.pe_scale, codes)
            embedded.append(e)
        if self.combine == "sum":
            x = embedded[0]
            for e in embedded[1:]:
                x = add(x, e)
        else:
            x = matmul(concat_last_dim(embedded), self.proj)
        if self.cfg.use_pe and self.early_pe == EARLY_PE_AFTER_FUSION:
            x = apply_pe(x, centers, self.cfg.pe_scale, codes)
        layout = SetLayout.of(sizes, x.shape[0])
        return checked(_read_out(x, self, layout, mode, rng, record_attention))

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
    The members' configs may differ only in feature_dim, so a pass runs them
    all as one grouped pass.
    """

    kind = "late"

    def __init__(self, models: Mapping[str, BranchModel], weights: Mapping[str, float] | None = None):
        if len(models) < 2:
            raise ConfigError(f"late fusion needs at least 2 branches, got {sorted(models)}")
        self.branches = sorted(models)
        self.models = {b: models[b] for b in self.branches}
        first = self.branches[0]
        ref = vars(self.models[first].cfg)
        for b in self.branches[1:]:
            for name, value in vars(self.models[b].cfg).items():
                if name != "feature_dim" and value != ref[name]:
                    raise ConfigError(f"branch {b!r} differs from {first!r} in {name}: "
                                      f"{value!r}, not {ref[name]!r}")
        raw = dict(DEFAULT_LATE_WEIGHTS) if weights is None else dict(weights)
        for b in self.branches:
            if b not in raw:
                raise ConfigError(f"no fusion weight for branch {b!r}")
            if not (math.isfinite(raw[b]) and raw[b] > 0):
                raise ConfigError(f"fusion weight for {b!r} must be finite and positive, got {raw[b]}")
        total = sum(raw[b] for b in self.branches)
        self.weights = {b: raw[b] / total for b in self.branches}
        runs = [self.models[b].parameters() for b in self.branches]
        owners = {}
        for b, run in zip(self.branches, runs):
            for name, t in run:
                owner = owners.setdefault(id(t), b)
                if owner != b:
                    raise ConfigError(f"branches {owner!r} and {b!r} share the weight {name!r}; "
                                      "each branch needs a model of its own")
        self._hold(runs)

    def _hold(self, runs):
        """Move the members' parameters, .data and .grad alike, into two (G, P)
        arrays. Row g holds member g's parameters in parameters() order,
        ending at the row's end, so every weight past the embedding sits in the
        same columns of every row. The grouped weights are one BranchWeights
        whose tensors past the embedding view those columns of both arrays as
        (G, ...), and which embeds nothing: each member embeds its own rows.
        runs: each member's parameters(), in branch order."""
        width = max(sum(t.size for _, t in run) for run in runs)
        data, grad = np.zeros((len(runs), width)), np.zeros((len(runs), width))
        self._held = []  # (branch, name, tensor, .data, .grad) as wrapped
        for b, run, data_row, grad_row in zip(self.branches, runs, data, grad):
            at = width - sum(t.size for _, t in run)
            np.concatenate([t.data.ravel() for _, t in run], out=data_row[at:])
            np.concatenate([t.grad.ravel() for _, t in run], out=grad_row[at:])
            for name, t in run:
                shape, end = t.shape, at + t.size
                t.data, t.grad = data_row[at:end].reshape(shape), grad_row[at:end].reshape(shape)
                self._held.append((b, name, t, t.data, t.grad))
                at = end
        self._grouped = BranchWeights(self.models[self.branches[0]].cfg, None)
        grouped = self._grouped.parameters()[2:]  # past embed_w and embed_b
        at = width - sum(t.size for _, t in grouped)
        for _, t in grouped:
            shape, end = (len(runs),) + t.shape, at + t.size
            t.data, t.grad = data[:, at:end].reshape(shape), grad[:, at:end].reshape(shape)
            at = end
        self._grouped.embed_w = self._grouped.embed_b = None

    forward = _forward

    def forward_batch(self, scenes: Sequence, mode=MODE_INFER, rng=None,
                      record_attention=False) -> Prediction:
        for b, name, t, data, grad in self._held:
            if t.data is not data or t.grad is not grad:
                raise UsageError(f"branch {b!r}: parameter {name!r} was rebound since its "
                                 "model was wrapped in late fusion")
        members = [self.models[b].weights for b in self.branches]
        feats, centers, sizes = pack_inputs(
            scenes, {b: m.cfg.feature_dim for b, m in zip(self.branches, members)})
        codes = {}
        x = stack([_embedded(feats[b], centers, m, codes) for b, m in zip(self.branches, members)])
        layout = SetLayout.of(sizes * len(members), sum(sizes) * len(members))
        pred = checked(_read_out(x, self._grouped, layout, mode, rng, record_attention))
        mix = [self.weights[b] for b in self.branches]
        action_mix = weighted_sum(softmax_rows(unbox(pred.action_logits)), mix)
        activity_mix = weighted_sum(softmax_rows(unbox(pred.activity_logits)), mix)
        attention = None
        if record_attention:  # the records run member after member, scene after scene
            recs = pred.attention or [None] * layout.count  # None: no encoder
            attention = [dict(zip(self.branches, recs[i::len(sizes)])) for i in range(len(sizes))]
        # the logits passed checked(); mixing their softmaxes stays finite
        return Prediction(box(action_mix), box(activity_mix), attention, sizes)

    def parameters(self):
        out = []
        for b in self.branches:
            out += [(f"branch/{b}/{name}", t) for name, t in self.models[b].parameters()]
        return out


def branch_inputs(scene) -> dict:
    """View a generated scene as the per-branch inputs the models consume."""
    return {name: BranchInput(feats, scene.centers) for name, feats in scene.features.items()}

