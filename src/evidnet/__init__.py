"""Belief-function classification toolkit.

A Dempster-Shafer core (frames, mass functions, combination rules), a
prototype-based evidential classifier with a trainable linear reduction
layer, supervised and semi-supervised losses with analytic gradients,
binary evaluation metrics, and CSV/JSON persistence behind a small CLI.
"""

from .belief import (
    MAX_FRAME_SIZE,
    Frame,
    MassFunction,
    bel,
    combine_all,
    conflict,
    dempster_combine,
    mass_new,
    pl,
    vacuous,
)
from .dataio import (
    FeatureDataset,
    export_predictions,
    load_csv,
    load_model,
    save_model,
    write_csv,
)
from .errors import (
    CorruptFieldError,
    DimensionMismatchError,
    EmptyBatchError,
    EmptyFileError,
    EmptyListError,
    EmptySetMassError,
    EmptyValidationError,
    EvidnetError,
    FrameMismatchError,
    InvalidMaskError,
    LengthMismatchError,
    MissingHeaderError,
    NegativeMassError,
    NoLabeledDataError,
    NonFiniteGradientError,
    NonFiniteInputError,
    NonNumericFeatureError,
    NotNormalizedError,
    RaggedRowError,
    ShapeMismatchError,
    SingleClassError,
    TooFewPointsError,
    TotalConflictError,
    UnknownLabelError,
    UnsupportedVersionError,
    WriteFailureError,
    ZeroBetaError,
)
from .metrics import (
    MetricsReport,
    RocCurve,
    accuracy,
    auc,
    f1,
    metrics_report,
    roc_points,
)
from .model import (
    EvidentialModel,
    ModelConfig,
    OutputMass,
    decide,
    forward,
    forward_batch,
    init_model,
    kmeans_init,
)
from .training import (
    Batch,
    EpochRecord,
    GradientVector,
    OptimizerState,
    TrainConfig,
    TrainHistory,
    grad_check,
    gradients,
    init_optimizer,
    optimizer_step,
    total_loss,
    train,
)

__version__ = "0.1.0"
