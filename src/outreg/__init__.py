"""Outlier-aware nonlinear regression.

Randomised-network ensemble regression for time-ordered tabular data,
with a Mahalanobis-distance gate that flags test inputs outside the
training envelope and a directional linear extrapolation fallback that
replaces the nonlinear prediction on those points.
"""

from .extrapolate import (DegenerateGeometryError, ExtrapolationPlan,
                          ExtrapolationRecord, NoPredictionError, OrConfig,
                          boundary_extrapolate_1d, categorical_center,
                          center_linear_extrapolate, extrapolation_plan,
                          nlror_predict, nlror_predict_detailed,
                          nn_linear_extrapolate)
from .modelio import load_ensemble, load_gate, save_ensemble, save_gate
from .numkernel import (average_ranks, columnwise_median, percentile,
                        pinv_solve, sample_covariance, sample_mean)
from .outlier_gate import (Gate, OutlierPartition, at_percentile,
                           beyond_nearest_neighbor, classify, fit_gate,
                           mahalanobis_distance, nearest_training_neighbor)
from .preprocess import (MinMaxScaler, OneHotGroup, TargetTransform,
                         apply_minmax, clip_nonnegative, fit_minmax,
                         inverse_transform_target, invert_minmax,
                         minmax_onehot_group, one_hot_encode, r_outl,
                         r_outl_estimate, transform_target)
from .regress import (Activation, CvConfig, ElmModel, EnsembleModel,
                      LinearModel, TrimPolicy, activation_value,
                      default_node_grid, elm_predict, elm_train,
                      ensemble_predict, ensemble_train, lr_fit, lr_predict,
                      select_node_count)

__version__ = "0.1.0"

__all__ = [
    "Activation", "CvConfig", "DegenerateGeometryError", "ElmModel",
    "EnsembleModel", "ExtrapolationPlan", "ExtrapolationRecord", "Gate", "LinearModel",
    "MinMaxScaler", "NoPredictionError", "OneHotGroup", "OrConfig",
    "OutlierPartition", "TargetTransform", "TrimPolicy",
    "activation_value", "apply_minmax", "at_percentile", "average_ranks",
    "beyond_nearest_neighbor", "boundary_extrapolate_1d", "categorical_center",
    "center_linear_extrapolate", "classify", "clip_nonnegative",
    "columnwise_median", "default_node_grid", "elm_predict", "elm_train",
    "ensemble_predict", "ensemble_train", "extrapolation_plan", "fit_gate", "fit_minmax",
    "inverse_transform_target", "invert_minmax", "load_ensemble",
    "load_gate", "lr_fit", "lr_predict", "mahalanobis_distance",
    "minmax_onehot_group", "nearest_training_neighbor", "nlror_predict", "nlror_predict_detailed",
    "nn_linear_extrapolate", "one_hot_encode", "percentile", "pinv_solve",
    "r_outl", "r_outl_estimate", "sample_covariance", "sample_mean",
    "save_ensemble", "save_gate", "select_node_count", "transform_target",
]
