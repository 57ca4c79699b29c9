"""Streaming Gaussian-process regression with recursively split local models."""

from .baselines import FullGp, LocalGpWgen, Rbcm
from .bench import (
    ExperimentConfig,
    MetricRecord,
    emit_csv,
    emit_summary_csv,
    grid_search,
    read_metrics,
    run_experiment,
    summarize,
)
from .data import (
    Dataset,
    SeedPlan,
    center_y,
    dedup_exact,
    kfold,
    load_csv,
    synth_dataset,
    synth_latent,
    train_test_split,
    write_csv,
)
from .exceptions import (
    ContractViolationError,
    DegenerateDataError,
    EmptyModelError,
    NumericalError,
)
from .gp import (
    FitResult,
    FitSchedule,
    GpPosterior,
    fit,
    lml_gradient,
    log_marginal_likelihood,
    posterior_mean,
    posterior_variance,
)
from .kernels import (
    KernelSpec,
    cross_gram,
    default_spec,
    gram,
    gram_gradients,
)
from .model import ChildModel, LocalGpPool, PredictionSummary, SplittingGP, TrainSchedule
from .partition import SplitResult, principal_direction, split

__version__ = "0.1.0"

__all__ = [
    "ChildModel",
    "ContractViolationError",
    "Dataset",
    "DegenerateDataError",
    "EmptyModelError",
    "ExperimentConfig",
    "FitResult",
    "FitSchedule",
    "FullGp",
    "GpPosterior",
    "KernelSpec",
    "LocalGpPool",
    "LocalGpWgen",
    "MetricRecord",
    "NumericalError",
    "PredictionSummary",
    "Rbcm",
    "SeedPlan",
    "SplitResult",
    "SplittingGP",
    "TrainSchedule",
    "center_y",
    "cross_gram",
    "dedup_exact",
    "default_spec",
    "emit_csv",
    "emit_summary_csv",
    "fit",
    "grid_search",
    "gram",
    "gram_gradients",
    "kfold",
    "lml_gradient",
    "load_csv",
    "log_marginal_likelihood",
    "posterior_mean",
    "posterior_variance",
    "principal_direction",
    "read_metrics",
    "run_experiment",
    "split",
    "summarize",
    "synth_dataset",
    "synth_latent",
    "train_test_split",
    "write_csv",
]
