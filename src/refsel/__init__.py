"""Ensemble reconstruction-error feature selection for imbalanced binary data.

Autoencoders trained on majority-class rows only reconstruct both classes;
features where the minority class accumulates a markedly higher
reconstruction error are the ones that set it apart, and a quantile
threshold on that per-feature difference picks the selected subset.
"""

from .classifiers import GaussianNB, KNeighbors, LogisticRegression
from .data import (
    DatasetSplitSpec,
    ScalingParams,
    apply_scaling,
    build_fsds_cds,
    export_q_csv,
    fit_scaling,
    load_csv,
    load_idx_images,
    load_selection,
    save_csv,
    save_selection,
)
from .ensemble import (
    EnsembleConfig,
    REMatrix,
    SelectionResult,
    class_mean_re,
    run_ensemble,
    select_at_thresholds,
    select_features,
    stacks,
)
from .evaluate import (
    EvalProtocol,
    EvalReport,
    chi2_rank,
    chi2_scores,
    evaluate_selection,
    stratified_split,
)
from .exceptions import (
    DataError,
    NumericError,
    ParameterError,
    RefselError,
    ShapeError,
    UsageError,
)
from .metrics import auroc, sensitivity
from .nn import (
    AdamState,
    DsaeConfig,
    DsaeModel,
    LayerSpec,
    TrainingConfig,
    adam_step,
    backward,
    forward,
    layers_from_widths,
    loss_with_penalty,
    reconstruction_errors,
    train,
)
from .sampling import LabeledDataset, build_component_split, derive_seed
from .synthetic import make_planted_dataset

__version__ = "0.1.0"
