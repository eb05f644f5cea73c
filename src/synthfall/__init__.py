"""Toolkit for evaluating synthetic wearable-accelerometer fall data.

Pipeline pieces: joint-trajectory kinematics, file/catalog ingestion, window
construction and training mixes, distribution-alignment metrics, a
from-scratch LSTM fall classifier, and the experiment harness tying them
together.
"""

from .errors import ConfigError, DataError, NumericError, ToolkitError
from .kinematics import (
    AccelSeries,
    ActivityLabel,
    JointTrajectory,
    PositionSeries,
    Provenance,
    SensorPlacement,
    differentiate_to_accel,
    extract_joint,
    joint_index_for,
)
from .ingest import (
    DatasetCatalog,
    PromptCatalog,
    catalog_dataset,
    generate_prompt_variants,
    load_entry,
    load_prompt_catalog,
    read_accel_csv,
    read_motion_array,
    write_accel_csv,
)
from .windowing import (
    MixSpec,
    Scaler,
    SubjectSplit,
    WindowSet,
    apply_scaler,
    compose_training_mix,
    fit_scaler,
    slide_windows,
    split_subjects,
)
from .metrics import (
    ClassificationMetrics,
    DensityCurve,
    KsResult,
    classification_metrics,
    coverage,
    histogram_density,
    jsd,
    ks_two_sample,
    percent_delta,
)
from .classifier import (
    ModelParams,
    TrainConfig,
    TrainHistory,
    evaluate,
    forward,
    init_model,
    loss_and_gradients,
    train,
)
from .harness import (
    AlignmentOptions,
    AlignmentReport,
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    run_alignment,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AccelSeries",
    "ActivityLabel",
    "AlignmentOptions",
    "AlignmentReport",
    "ClassificationMetrics",
    "ConfigError",
    "DataError",
    "DatasetCatalog",
    "DensityCurve",
    "ExperimentConfig",
    "ExperimentReport",
    "JointTrajectory",
    "KsResult",
    "MixSpec",
    "ModelParams",
    "NumericError",
    "PositionSeries",
    "PromptCatalog",
    "Provenance",
    "Scaler",
    "SensorPlacement",
    "SubjectSplit",
    "ToolkitError",
    "TrainConfig",
    "TrainHistory",
    "WindowSet",
    "apply_scaler",
    "catalog_dataset",
    "classification_metrics",
    "compose_training_mix",
    "coverage",
    "differentiate_to_accel",
    "emit_report",
    "evaluate",
    "extract_joint",
    "fit_scaler",
    "forward",
    "generate_prompt_variants",
    "histogram_density",
    "init_model",
    "joint_index_for",
    "jsd",
    "ks_two_sample",
    "load_entry",
    "load_prompt_catalog",
    "loss_and_gradients",
    "percent_delta",
    "read_accel_csv",
    "read_motion_array",
    "run_alignment",
    "run_experiment",
    "slide_windows",
    "split_subjects",
    "train",
    "write_accel_csv",
]
