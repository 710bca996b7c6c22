"""Actor-set transformers for group activity recognition on synthetic scenes.

The package is layered bottom-up: `tensor` (tape-based reverse-mode
autodiff), `posenc` (sinusoidal box-center codes), `transformer` (encoder
stack), `model` (branch and fusion models), `training` (joint objective and
optimizers), `scenes` (synthetic data), and the `cli` harness on top.
"""

from .errors import (
    ConfigError,
    DataError,
    EmptySetError,
    GroupActError,
    NumericsError,
    ParseError,
    ShapeError,
    TrainingDiverged,
    UsageError,
)
from .model import (
    BranchConfig,
    BranchInput,
    BranchModel,
    EarlyFusionModel,
    LateFusionModel,
    Prediction,
    forward_branch,
    predict,
)
from .posenc import apply_pe
from .scenes import (
    ActorScene,
    SceneConfig,
    SceneDataset,
    generate,
    load_dataset,
    save_dataset,
)
from .tensor import MODE_INFER, MODE_TRAIN, Graph, Tensor
from .training import TrainConfig, joint_loss, lr_at, train
from .transformer import (
    AttentionRecord,
    EncoderConfig,
    EncoderWeights,
    attention,
    encode,
)

__version__ = "0.1.0"
