"""Sparse, outlier-robust least-squares SVM training.

Combines a truncated least-squares loss (entropy-smoothed), a CCCP outer
loop, and a pivoted-Cholesky low-rank kernel factorization to train
classification and regression models whose decision functions involve at
most r landmark points.
"""

from .data import (
    Dataset,
    inject_label_outliers,
    inject_target_noise,
    make_synthetic_linear,
    make_synthetic_regression,
    normalize_minmax,
    parse_sparse_text,
    split,
)
from .errors import (
    DataFormatError,
    InvalidInputError,
    NumericalError,
    UnsupportedVersionError,
)
from .kernels import KernelSpec, kernel_column, kernel_diag
from .losses import LossParams, gamma, l2_part, smoothed_l2, smoothed_l2_grad, \
    truncated_loss
from .lowrank import LowRankFactor, pivoted_cholesky
from .model import EvalReport, Model, evaluate, load, predict_class, predict_raw, save
from .solver import (
    AnnealSchedule,
    SolverConfig,
    TrainReport,
    TrainState,
    cccp_step,
    precompute,
    train,
    train_lssvm,
)

__version__ = "0.1.0"

__all__ = [
    "AnnealSchedule",
    "DataFormatError",
    "Dataset",
    "EvalReport",
    "InvalidInputError",
    "KernelSpec",
    "LossParams",
    "LowRankFactor",
    "Model",
    "NumericalError",
    "SolverConfig",
    "TrainReport",
    "TrainState",
    "UnsupportedVersionError",
    "cccp_step",
    "evaluate",
    "gamma",
    "inject_label_outliers",
    "inject_target_noise",
    "kernel_column",
    "kernel_diag",
    "l2_part",
    "load",
    "make_synthetic_linear",
    "make_synthetic_regression",
    "normalize_minmax",
    "parse_sparse_text",
    "pivoted_cholesky",
    "precompute",
    "predict_class",
    "predict_raw",
    "save",
    "smoothed_l2",
    "smoothed_l2_grad",
    "split",
    "train",
    "train_lssvm",
    "truncated_loss",
]
