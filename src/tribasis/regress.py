"""The triple-basis estimator: a linear map from random cosine features of
input projection coefficients to output projection coefficients.

Training accumulates the feature Gram matrix and the feature/target cross
product, so memory stays O(D^2 + D*r) no matter how many instances are
seen, and shards built independently merge by entrywise addition. With a
positive ridge penalty and fewer training pairs N than features D, ``fit``
and ``fit_cv`` solve the equivalent N x N dual system instead,
psi = Z^T (Z Z^T + lambda I)^-1 Y, whose O(N*D) memory is below the
Gram's O(D^2); ``accumulate`` and ``TrainingSummary.merge`` stay primal.
The linear system is solved by a symmetric positive-definite factorization
(ridge) or, for the plain least-squares case, a condition-guarded
factorization with a pivoted symmetric fallback; an explicit inverse is
never formed.
"""

from dataclasses import dataclass, field

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
_CV_ROWS = 256  # rows per block of fit_cv's streamed primal search
# default hyperparameter grids of the triple-basis search
SIGMA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
LAMBDA_GRID = (1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
# candidate truncation radii averaged by ``average_truncation_radius``
DEFAULT_RADII = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0)


class IllConditionedError(RuntimeError):
    """Raised when a plain least-squares solve meets a numerically singular
    Gram matrix; carries the condition estimate."""

    def __init__(self, condition_estimate: float, max_condition: float):
        self.condition_estimate = float(condition_estimate)
        self.max_condition = float(max_condition)
        super().__init__(
            f"gram matrix condition estimate {condition_estimate:.3e} exceeds "
            f"the ridgeless limit {max_condition:.3e}; use a positive ridge "
            "penalty"
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
    n = inputs.shape[0]
    gram = np.zeros((fmap.feature_count, fmap.feature_count))
    cross = np.zeros((fmap.feature_count, outputs.shape[1]))
    for start in range(0, n, _BATCH_ROWS):
        stop = min(start + _BATCH_ROWS, n)
        z = compute_features_batch(fmap, inputs[start:stop])
        gram += z.T @ z
        cross += z.T @ outputs[start:stop]
    return TrainingSummary(gram, cross, n)


def _shift_into(lhs: np.ndarray, gram: np.ndarray, ridge_lambda: float) -> None:
    """Overwrite ``lhs`` with ``gram`` plus ``ridge_lambda`` on the diagonal."""
    lhs[...] = gram
    diag = np.arange(lhs.shape[0])
    lhs[diag, diag] += ridge_lambda


def solve(summary: TrainingSummary, ridge_lambda: float) -> np.ndarray:
    """Solve (gram + lambda * I) psi = cross for the coefficient matrix.

    lambda = 0 is ordinary least squares and requires the Gram matrix to be
    numerically non-singular; a condition estimate past
    ``DEFAULT_MAX_CONDITION`` raises IllConditionedError. Borderline
    ridgeless systems fall back to a pivoted symmetric solve. The summary
    is never modified, so one summary serves a whole grid of penalties.
    """
    if ridge_lambda < 0:
        raise ValueError("ridge penalty must be non-negative")
    lhs = summary.gram
    if ridge_lambda > 0:
        # one D x D copy, Fortran-ordered so LAPACK works on it in place
        lhs = np.empty_like(lhs, order="F")
        _shift_into(lhs, summary.gram, ridge_lambda)
        try:
            factor = sla.cho_factor(
                lhs, lower=True, overwrite_a=True, check_finite=False
            )
        except sla.LinAlgError:
            # accumulated grams are positive semidefinite only up to
            # round-off; a penalty below that noise can leave the shifted
            # matrix numerically indefinite. The failed factorization
            # overwrote the copy, so rebuild it for the symmetric solve.
            _shift_into(lhs, summary.gram, ridge_lambda)
            return sla.solve(lhs, summary.cross, assume_a="sym",
                             overwrite_a=True, check_finite=False)
        return sla.cho_solve(factor, summary.cross, check_finite=False)

    try:
        factor = sla.cho_factor(lhs, lower=True, check_finite=False)
    except sla.LinAlgError:
        cond = np.linalg.cond(lhs)
        raise IllConditionedError(cond, DEFAULT_MAX_CONDITION) from None
    anorm = np.abs(lhs).sum(axis=0).max()
    rcond, info = sla.lapack.dpocon(factor[0], anorm, uplo="L")
    cond = np.inf if rcond == 0 or info != 0 else 1.0 / rcond
    if cond > DEFAULT_MAX_CONDITION:
        raise IllConditionedError(cond, DEFAULT_MAX_CONDITION)
    if cond > DEFAULT_MAX_CONDITION * 1e-4:
        # borderline: pivoted symmetric (Bunch-Kaufman) solve is sturdier
        return sla.solve(lhs, summary.cross, assume_a="sym", check_finite=False)
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
    basis_tag: str = "cosine"
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
        if self.ridge_lambda < 0:
            raise ValueError("ridge penalty must be non-negative")
        self.psi = psi


def _fit_psi(inputs: np.ndarray, outputs: np.ndarray, fmap: RksFeatureMap,
             ridge_lambda: float) -> np.ndarray:
    """psi fitted on coefficient rows. With lambda > 0 and fewer rows than
    features it is Z^T alpha from the N x N dual system
    (Z Z^T + lambda I) alpha = Y; otherwise it solves the primal D x D
    normal equations."""
    if ridge_lambda > 0 and inputs.shape[0] < fmap.feature_count:
        z = compute_features_batch(fmap, inputs)
        kernel = TrainingSummary(z @ z.T, outputs, inputs.shape[0])
        return z.T @ solve(kernel, ridge_lambda)
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
    With ``ridge_lambda`` > 0 and fewer pairs than features the N x N dual
    system is solved; otherwise the D x D normal equations are accumulated
    and solved.
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
    folds: int = 5,
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


def _solve_or_nan(summary, ridge_lambda, failures):
    """``solve``, or NaNs once its IllConditionedError is kept in ``failures``."""
    try:
        return solve(summary, ridge_lambda)
    except IllConditionedError as exc:
        failures.append(exc)
        return np.full(summary.cross.shape, np.nan)


def _primal_search(inputs, outputs, fit_idx, val_idx, fmaps, lambda_grid, failures):
    """Held-out MSE table (maps, penalties) and each map's fitting summary
    from two passes over row blocks: one accumulates, one scores."""
    d, r, n_lam = fmaps[0].feature_count, outputs.shape[1], len(lambda_grid)
    grams, crosses = np.zeros((len(fmaps), d, d)), np.zeros((len(fmaps), d, r))
    for start in range(0, len(fit_idx), _CV_ROWS):
        rows = fit_idx[start:start + _CV_ROWS]
        for gram, cross, z in zip(grams, crosses, feature_ladder(fmaps, inputs[rows])):
            gram += z.T @ z
            cross += z.T @ outputs[rows]
    summaries = [TrainingSummary(g, c, len(fit_idx)) for g, c in zip(grams, crosses)]
    # each map's solutions side by side, so one product scores every penalty
    psis = [np.hstack([_solve_or_nan(t, lam, failures) for lam in lambda_grid])
            for t in summaries]
    sse = np.zeros((len(fmaps), n_lam))
    for start in range(0, len(val_idx), _CV_ROWS):
        rows = val_idx[start:start + _CV_ROWS]
        for k, z in enumerate(feature_ladder(fmaps, inputs[rows])):
            resid = (z @ psis[k]).reshape(len(rows), n_lam, r) - outputs[rows][:, None]
            sse[k] += (resid * resid).sum(axis=(0, 2))
    return sse / len(val_idx), summaries


def _dual_search(inputs, outputs, fit_idx, val_idx, fmaps, lambda_grid, failures):
    """``_primal_search`` for fewer fitting rows than features, in the dual."""
    mse = np.zeros((len(fmaps), len(lambda_grid)))
    x_fit, y_fit = inputs[fit_idx], outputs[fit_idx]
    for k, fmap in enumerate(fmaps):
        z_fit = compute_features_batch(fmap, x_fit)
        z_val = compute_features_batch(fmap, inputs[val_idx])
        kernel = TrainingSummary(z_fit @ z_fit.T, y_fit, len(fit_idx))
        for j, lam in enumerate(lambda_grid):
            if lam > 0:
                psi = z_fit.T @ solve(kernel, lam)
            else:
                psi = _solve_or_nan(accumulate(x_fit, y_fit, fmap), lam, failures)
            resid = z_val @ psi - outputs[val_idx]
            mse[k, j] = (resid * resid).sum() / len(val_idx)
    return mse, None


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

    With at least as many fitting rows as features, row blocks stream
    through ``feature_ladder``. Its maps share normals scaled by powers of
    two, so on a grid of exact halvings (the default) one sine and cosine
    pass serves every bandwidth; one in no halving chain is evaluated
    directly. The refit adds the held-out rows' normal equations to the
    search's. With fewer, positive penalties are solved in the dual and
    the refit is ``fit``'s. The log keeps the caller's order and its first
    tie, searching a repeat once; an ill-conditioned point scores inf.
    """
    dataset = list(dataset)
    if len(dataset) < 2:
        raise ValueError("hyperparameter search needs at least two instances")
    inputs = project_all([p for p, _ in dataset], input_index_set)
    outputs = project_all([q for _, q in dataset], output_index_set)
    val_idx, fit_idx = holdout_split(len(dataset), seed)
    sigmas = list(dict.fromkeys(bandwidth_grid))
    fmaps = [sample_feature_map(inputs.shape[1], feature_count, bw, seed)
             for bw in sigmas]
    primal = len(fit_idx) >= feature_count
    search = _primal_search if primal else _dual_search
    failures = []
    mse, summaries = search(inputs, outputs, fit_idx, val_idx, fmaps, lambda_grid,
                            failures)
    if len(failures) == mse.size:
        raise failures[0]
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
