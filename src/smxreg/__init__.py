"""Softmax regression with exact curvature analysis.

Training (full-batch gradient descent with optional Barzilai-Borwein
stepping), the cross-entropy gradient in closed vectorized form, the Hessian
as a matrix-free operator with its exact kernel, the analytic spectrum of
the per-sample curvature factor, strict-convexity certification, and
certified convergence-rate windows for fixed-rate descent.
"""
from .convergence import (
    ConvergencePlan,
    CurvatureBracket,
    curvature_bracket,
    determinant_check,
    dense_hessian_on_z,
    eta_window,
    extreme_eigenvalues_on_z,
    plan,
    zero_sum_basis,
)
from .core import (
    ConvexityCertificate,
    Dataset,
    DimensionMismatchError,
    InvalidInputError,
    InvalidLabelError,
    LiveRows,
    RankDeficientError,
    SizeLimitError,
    UnsupportedShapeError,
    center_columns,
    certify,
    one_hot,
)
from .hessian import HessianOperator
from .loss_grad import error_covariance, gradient, loss
from .softmax import d_rho, q_matrix, rho, softmax
from .spectrum import SpectrumReport, analyze_q, dense_q_spectrum, nullspace_basis
from .trainer import TrainConfig, TrainTrace, evaluate, initial_weights, train

__all__ = [
    "ConvexityCertificate",
    "ConvergencePlan",
    "CurvatureBracket",
    "Dataset",
    "DimensionMismatchError",
    "HessianOperator",
    "InvalidInputError",
    "InvalidLabelError",
    "LiveRows",
    "RankDeficientError",
    "SizeLimitError",
    "SpectrumReport",
    "TrainConfig",
    "TrainTrace",
    "UnsupportedShapeError",
    "analyze_q",
    "center_columns",
    "certify",
    "curvature_bracket",
    "d_rho",
    "dense_hessian_on_z",
    "dense_q_spectrum",
    "determinant_check",
    "error_covariance",
    "eta_window",
    "evaluate",
    "extreme_eigenvalues_on_z",
    "gradient",
    "initial_weights",
    "loss",
    "nullspace_basis",
    "one_hot",
    "plan",
    "q_matrix",
    "rho",
    "softmax",
    "train",
    "zero_sum_basis",
]
