"""The triple-basis estimator: a linear map from random cosine features of
input projection coefficients to output projection coefficients.

Training accumulates the feature Gram matrix and the feature/target cross
product, so memory stays O(D^2 + D*r) no matter how many instances are
seen, and shards built independently merge by entrywise addition. With
fewer training pairs N than features D, ``fit`` and ``fit_cv`` solve the
equivalent N x N dual system instead, psi = Z^T (Z Z^T + lambda I)^-1 Y,
whose O(N*D) memory is below the Gram's O(D^2); ``accumulate`` and
``TrainingSummary.merge`` stay primal. Every system is solved by one
in-place Cholesky factorization, condition-checked for plain least
squares, with a symmetric indefinite fallback for a positive penalty
below the Gram's round-off; an explicit inverse is never formed.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import linalg as sla

from .basis import (
    BasisIndexSet,
    CoefficientVector,
    FunctionObservation,
    holdout_split,
    project_all,
    project_coefficients,
    reconstruct,
    select_truncation,
)
from .features import (
    RksFeatureMap,
    compute_features,
    compute_features_batch,
    feature_ladder,
    sample_feature_map,
)

DEFAULT_MAX_CONDITION = 1e12
_BATCH_ROWS = 4096
_CV_ROWS = 256  # rows per block of fit_cv's streamed search
# default hyperparameter grids of the triple-basis search
SIGMA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
LAMBDA_GRID = (1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
# candidate truncation radii averaged by ``average_truncation_radius``
DEFAULT_RADII = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0)
DEFAULT_FOLDS = 5  # cross-validation folds per observation, for each radius


class IllConditionedError(ValueError):
    """Raised when a plain least-squares solve meets a numerically singular
    Gram matrix; carries the condition estimate."""

    def __init__(self, condition_estimate: float):
        self.condition_estimate = float(condition_estimate)
        super().__init__(
            f"gram matrix condition estimate {condition_estimate:.3e} exceeds "
            f"the ridgeless limit {DEFAULT_MAX_CONDITION:.3e}; use a positive "
            "ridge penalty"
        )


@dataclass
class TrainingSummary:
    """Accumulated normal-equation blocks: gram (D, D), cross (D, r), and
    the instance count."""

    gram: np.ndarray
    cross: np.ndarray
    count: int = 0

    def __post_init__(self):
        gram = np.asarray(self.gram, dtype=float)
        cross = np.asarray(self.cross, dtype=float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError("gram must be square")
        if cross.ndim != 2 or cross.shape[0] != gram.shape[0]:
            raise ValueError("cross must have one row per feature")
        if self.count < 0:
            raise ValueError("count must be non-negative")
        self.gram = gram
        self.cross = cross

    @property
    def feature_count(self) -> int:
        return self.gram.shape[0]

    @property
    def output_dim(self) -> int:
        return self.cross.shape[1]

    def merge(self, other: "TrainingSummary") -> "TrainingSummary":
        """Entrywise sum of two summaries (shards commute up to round-off)."""
        if self.gram.shape != other.gram.shape or self.cross.shape != other.cross.shape:
            raise ValueError("summary shapes do not match")
        return TrainingSummary(
            self.gram + other.gram, self.cross + other.cross, self.count + other.count
        )


def _summaries(inputs, outputs, fmaps, rows) -> list:
    """One TrainingSummary per map of ``fmaps`` (maps of one shape) over
    coefficient rows ``inputs`` (N, s) and ``outputs`` (N, r). Each block
    of ``rows`` rows goes through one ``feature_ladder`` call and adds to
    every map's normal equations, in row order."""
    d, r = fmaps[0].feature_count, outputs.shape[1]
    grams, crosses = np.zeros((len(fmaps), d, d)), np.zeros((len(fmaps), d, r))
    for start in range(0, len(inputs), rows):
        x, y = inputs[start:start + rows], outputs[start:start + rows]
        for gram, cross, z in zip(grams, crosses, feature_ladder(fmaps, x)):
            gram += z.T @ z
            cross += z.T @ y
    return [TrainingSummary(g, c, len(inputs)) for g, c in zip(grams, crosses)]


def accumulate(inputs, outputs, fmap: RksFeatureMap) -> TrainingSummary:
    """Normal-equation blocks of coefficient rows: ``inputs`` (N, s) and
    ``outputs`` (N, r) hold one training pair per row. Features are built
    ``_BATCH_ROWS`` rows at a time (``compute_features_batch`` checks the
    input width), so memory beyond the inputs stays O(D^2 + D*r). Shards
    accumulated apart combine with ``TrainingSummary.merge``."""
    inputs = np.asarray(inputs, dtype=float)
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim != 2 or outputs.shape[0] != len(inputs):
        raise ValueError(f"outputs {outputs.shape} need one row per input row")
    return _summaries(inputs, outputs, [fmap], _BATCH_ROWS)[0]


def _shift_into(lhs: np.ndarray, gram: np.ndarray, ridge_lambda: float) -> None:
    """Overwrite ``lhs`` with ``gram`` plus ``ridge_lambda`` on the diagonal."""
    lhs[...] = gram
    diag = np.arange(lhs.shape[0])
    lhs[diag, diag] += ridge_lambda


def solve(summary: TrainingSummary, ridge_lambda: float) -> np.ndarray:
    """Solve (gram + lambda * I) psi = cross for the coefficient matrix.

    One shifted, Fortran-ordered copy of the Gram is Cholesky-factored in
    place, so the summary is never modified and one summary serves a whole
    grid of penalties. lambda = 0 is ordinary least squares: a failed
    factorization, or a ``dpocon`` condition estimate past
    ``DEFAULT_MAX_CONDITION``, raises IllConditionedError. A positive
    penalty that fails to factor falls back to a symmetric indefinite solve.
    """
    if not 0 <= ridge_lambda < np.inf:
        raise ValueError(
            f"ridge penalty must be a finite number >= 0, found {ridge_lambda!r}")
    lhs = np.empty_like(summary.gram, order="F")
    _shift_into(lhs, summary.gram, ridge_lambda)
    try:
        factor = sla.cho_factor(lhs, lower=True, overwrite_a=True, check_finite=False)
    except sla.LinAlgError:
        if ridge_lambda == 0:
            raise IllConditionedError(np.inf) from None
        # accumulated grams are positive semidefinite only up to round-off;
        # a penalty below that noise can leave the shifted matrix
        # numerically indefinite. The failed factorization overwrote the
        # copy, so rebuild it for the symmetric solve.
        _shift_into(lhs, summary.gram, ridge_lambda)
        return sla.solve(lhs, summary.cross, assume_a="sym",
                         overwrite_a=True, check_finite=False)
    if ridge_lambda == 0:
        anorm = np.abs(summary.gram).sum(axis=0).max()
        rcond, info = sla.lapack.dpocon(factor[0], anorm, uplo="L")
        cond = np.inf if rcond == 0 or info != 0 else 1.0 / rcond
        if cond > DEFAULT_MAX_CONDITION:
            raise IllConditionedError(cond)
    return sla.cho_solve(factor, summary.cross, check_finite=False)


@dataclass
class TripleBasisModel:
    """Fitted function-to-function regressor.

    Holds the input/output index sets, the frozen feature map, the solved
    coefficient matrix psi (D, r), and the ridge penalty used. Prediction
    cost does not depend on ``training_count``.
    """

    input_index_set: BasisIndexSet
    output_index_set: BasisIndexSet
    feature_map: RksFeatureMap
    psi: np.ndarray
    ridge_lambda: float
    training_count: int = 0

    def __post_init__(self):
        # C layout keeps prediction matmuls on one BLAS path, so a model
        # reloaded from its file predicts bit-identically
        psi = np.ascontiguousarray(self.psi, dtype=float)
        expected = (self.feature_map.feature_count, len(self.output_index_set))
        if psi.shape != expected:
            raise ValueError(f"psi shape {psi.shape} does not match {expected}")
        if self.feature_map.input_dim != len(self.input_index_set):
            raise ValueError(
                "feature map input_dim does not match the input index set size"
            )
        if not 0 <= self.ridge_lambda < np.inf:
            raise ValueError(
                f"ridge penalty must be in [0, inf), found {self.ridge_lambda!r}")
        self.psi = psi


def _dual_psi(z: np.ndarray, outputs: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """psi = Z^T alpha from the N x N dual system (Z Z^T + lambda I) alpha = Y,
    for features ``z`` (N, D) with N < D. The D x D Gram Z^T Z then has rank
    at most N, so lambda = 0 is singular by construction and raises
    IllConditionedError without forming it."""
    if ridge_lambda == 0:
        raise IllConditionedError(np.inf)
    return z.T @ solve(TrainingSummary(z @ z.T, outputs, len(z)), ridge_lambda)


def _fit_psi(inputs: np.ndarray, outputs: np.ndarray, fmap: RksFeatureMap,
             ridge_lambda: float) -> np.ndarray:
    """psi fitted on coefficient rows: in the dual with fewer rows than
    features, otherwise from the primal D x D normal equations."""
    if inputs.shape[0] < fmap.feature_count:
        return _dual_psi(compute_features_batch(fmap, inputs), outputs, ridge_lambda)
    return solve(accumulate(inputs, outputs, fmap), ridge_lambda)


def fit(
    dataset,
    input_index_set: BasisIndexSet,
    output_index_set: BasisIndexSet,
    fmap: RksFeatureMap,
    ridge_lambda: float = 0.0,
) -> TripleBasisModel:
    """Project every observation pair, solve the ridge system, wrap as a
    model.

    ``dataset`` is a sequence of (input, output) FunctionObservation pairs.
    With fewer pairs than features the N x N dual system is solved, and
    ``ridge_lambda`` = 0 raises IllConditionedError; otherwise the D x D
    normal equations are accumulated and solved.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset must be non-empty")
    inputs = project_all([p for p, _ in dataset], input_index_set)
    outputs = project_all([q for _, q in dataset], output_index_set)
    psi = _fit_psi(inputs, outputs, fmap, ridge_lambda)
    return TripleBasisModel(input_index_set, output_index_set, fmap, psi,
                            float(ridge_lambda), training_count=len(dataset))


def predict_coeffs(
    model: TripleBasisModel, input_obs: FunctionObservation
) -> CoefficientVector:
    """Predicted output projection coefficients for one input observation.

    Cost is projection + featurization + one matrix-vector product,
    independent of how many instances the model was trained on.
    """
    a = project_coefficients(input_obs, model.input_index_set)
    z = compute_features(model.feature_map, a)
    return CoefficientVector(model.output_index_set, z @ model.psi)


def predict_function(model: TripleBasisModel, input_obs: FunctionObservation, x):
    """Predicted output function evaluated at x (point or batch)."""
    return reconstruct(predict_coeffs(model, input_obs), x)


def average_truncation_radius(
    observations,
    candidate_radii=DEFAULT_RADII,
    folds: int = DEFAULT_FOLDS,
) -> float:
    """Average of per-observation cross-validated truncation radii.

    Only the first 50 observations are cross-validated; small subsets are
    known to give stable averages at a fraction of the cost.
    """
    observations = list(observations)
    if not observations:
        raise ValueError("need at least one observation")
    subset = observations[:50]
    radii = [select_truncation(o, candidate_radii, folds) for o in subset]
    return float(np.mean(radii))


@dataclass
class CvResult:
    """Outcome of the held-out hyperparameter search."""

    model: TripleBasisModel
    bandwidth: float
    ridge_lambda: float
    validation_mse: float
    grid: list = field(default_factory=list)


def _solve_or_nan(solver, ridge_lambda, shape, failures):
    """``solver(ridge_lambda)``, or NaNs of ``shape`` once its
    IllConditionedError is kept in ``failures``."""
    try:
        return solver(ridge_lambda)
    except IllConditionedError as exc:
        failures.append(exc)
        return np.full(shape, np.nan)


def fit_cv(
    dataset,
    input_index_set: BasisIndexSet,
    output_index_set: BasisIndexSet,
    feature_count: int,
    seed: int,
    bandwidth_grid=SIGMA_GRID,
    lambda_grid=LAMBDA_GRID,
) -> CvResult:
    """Grid-search (bandwidth, ridge) on the seeded held-out split
    (``holdout_split``), scored by held-out output-coefficient mean squared
    error, then refit on all data.

    Both sides stream coefficient rows through ``feature_ladder``. Its maps
    share normals scaled by powers of two, so on a grid of exact halvings
    (the default) one sine and cosine pass serves every bandwidth; one in
    no halving chain is evaluated directly. With at least as many fitting
    rows as features, each map's penalties are solved from one streamed
    pass of normal equations, and the refit adds the held-out rows' to
    them. With fewer, they are solved in the dual and the refit is
    ``fit``'s. One pass over the held-out rows scores every grid point.
    The log keeps the caller's order and its first tie, searching a repeat
    once; an ill-conditioned point scores inf.
    """
    for name, grid in (("bandwidth_grid", bandwidth_grid), ("lambda_grid", lambda_grid)):
        if len(grid) == 0:
            raise ValueError(f"{name} must be non-empty")
    dataset = list(dataset)
    if len(dataset) < 2:
        raise ValueError("hyperparameter search needs at least two instances")
    inputs = project_all([p for p, _ in dataset], input_index_set)
    outputs = project_all([q for _, q in dataset], output_index_set)
    val_idx, fit_idx = holdout_split(len(dataset), seed)
    sigmas = list(dict.fromkeys(bandwidth_grid))
    fmaps = [sample_feature_map(inputs.shape[1], feature_count, bw, seed)
             for bw in sigmas]
    x_fit, y_fit = inputs[fit_idx], outputs[fit_idx]
    primal = len(fit_idx) >= feature_count
    if primal:
        summaries = _summaries(x_fit, y_fit, fmaps, _CV_ROWS)
        solvers = [partial(solve, t) for t in summaries]
    else:
        solvers = [partial(_dual_psi, z, y_fit) for z in feature_ladder(fmaps, x_fit)]
    r, n_lam = outputs.shape[1], len(lambda_grid)
    failures = []
    # each map's solutions side by side, so one product scores every penalty
    psis = [np.hstack([_solve_or_nan(f, lam, (feature_count, r), failures)
                       for lam in lambda_grid]) for f in solvers]
    if len(failures) == len(fmaps) * n_lam:
        raise failures[0]
    sse = np.zeros((len(fmaps), n_lam))
    for start in range(0, len(val_idx), _CV_ROWS):
        block = val_idx[start:start + _CV_ROWS]
        for k, z in enumerate(feature_ladder(fmaps, inputs[block])):
            resid = (z @ psis[k]).reshape(len(block), n_lam, r) - outputs[block][:, None]
            sse[k] += (resid * resid).sum(axis=(0, 2))
    mse = sse / len(val_idx)
    mse[np.isnan(mse)] = np.inf

    rows = [sigmas.index(bw) for bw in bandwidth_grid]
    table = mse[rows]  # the caller's order, so argmin keeps its first tie
    grid_log = [{"bandwidth": bw, "ridge_lambda": lam, "mse": float(m)}
                for bw, scores in zip(bandwidth_grid, table)
                for lam, m in zip(lambda_grid, scores)]
    i, j = np.unravel_index(np.argmin(table), table.shape)
    k, lam = rows[i], lambda_grid[j]
    if primal:  # the held-out rows complete the search's fitting summary
        held_out = accumulate(inputs[val_idx], outputs[val_idx], fmaps[k])
        psi = solve(summaries[k].merge(held_out), lam)
    else:
        psi = _fit_psi(inputs, outputs, fmaps[k], lam)
    model = TripleBasisModel(input_index_set, output_index_set, fmaps[k], psi,
                             float(lam), training_count=len(dataset))
    return CvResult(model=model, bandwidth=float(sigmas[k]), ridge_lambda=float(lam),
                    validation_mse=float(table[i, j]), grid=grid_log)
