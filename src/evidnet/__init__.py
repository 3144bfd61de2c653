"""Belief-function classification toolkit.

A Dempster-Shafer core (frames, mass functions, combination rules), a
prototype-based evidential classifier with a trainable linear reduction
layer, supervised and semi-supervised losses with analytic gradients,
binary evaluation metrics, and CSV/JSON persistence behind a small CLI.
"""

from .belief import (
    Frame,
    MassFunction,
    bel,
    combine_all,
    conflict,
    dempster_combine,
    mass_new,
    pl,
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
    EvidnetError,
    InvalidMassError,
    MalformedCsvError,
    NonFiniteInputError,
    TotalConflictError,
)
from .metrics import (
    accuracy,
    auc,
    f1,
    metrics_report,
    roc_points,
)
from .model import (
    EvidentialModel,
    ModelConfig,
    decide,
    forward,
    forward_batch,
    init_model,
)
from .training import TrainConfig, train

__version__ = "0.1.0"
