"""Scalable function-to-function regression.

Functions are only ever seen through finite observations (noisy point
evaluations, or samples from a density). They are summarized by projection
coefficients on a tensor-product cosine basis; a linear map fitted on
random cosine features of the input coefficients predicts the output
coefficients, so prediction cost is independent of the training-set size.
A kernel linear-smoother baseline and a benchmark harness ship alongside.
"""

from ._accel import backend_name
from .baseline import LinearSmootherModel, lse_fit, lse_fit_cv, lse_predict
from .basis import (
    DENSITY_SAMPLE,
    NOISY_EVALS,
    BasisIndexSet,
    CoefficientVector,
    FunctionObservation,
    SobolevSpec,
    coeff_l2_distance,
    enumerate_ball,
    enumerate_kappa_ball,
    project,
    project_all,
    reconstruct,
    select_truncation,
)
from .features import (
    RksFeatureMap,
    compute_features,
    compute_features_batch,
    rbf_kernel,
    sample_feature_map,
)
from .modelio import (
    ModelDimensionError,
    ModelFormatError,
    ModelVersionError,
    load_model,
    save_model,
)
from .regress import (
    IllConditionedError,
    TrainingSummary,
    TripleBasisModel,
    accumulate,
    average_truncation_radius,
    fit,
    fit_cv,
    predict_coeffs,
    predict_function,
    solve,
)
from .synth import (
    MappingSpec,
    SyntheticConfig,
    apply_mapping,
    generate_dataset,
    make_mapping,
    sample_input_function,
)

__version__ = "0.1.0"

__all__ = [
    "BasisIndexSet",
    "CoefficientVector",
    "DENSITY_SAMPLE",
    "FunctionObservation",
    "IllConditionedError",
    "LinearSmootherModel",
    "MappingSpec",
    "ModelDimensionError",
    "ModelFormatError",
    "ModelVersionError",
    "NOISY_EVALS",
    "RksFeatureMap",
    "SobolevSpec",
    "SyntheticConfig",
    "TrainingSummary",
    "TripleBasisModel",
    "accumulate",
    "apply_mapping",
    "average_truncation_radius",
    "backend_name",
    "coeff_l2_distance",
    "compute_features",
    "compute_features_batch",
    "enumerate_ball",
    "enumerate_kappa_ball",
    "fit",
    "fit_cv",
    "generate_dataset",
    "load_model",
    "lse_fit",
    "lse_fit_cv",
    "lse_predict",
    "make_mapping",
    "predict_coeffs",
    "predict_function",
    "project",
    "project_all",
    "rbf_kernel",
    "reconstruct",
    "sample_feature_map",
    "sample_input_function",
    "save_model",
    "select_truncation",
    "solve",
]
