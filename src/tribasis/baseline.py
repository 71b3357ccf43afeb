"""Linear smoother baseline: a kernel-weighted average of training output
functions, with weights from an Epanechnikov kernel on input-coefficient
distances.

This estimator must touch every stored training instance per prediction;
that linear cost is the point of comparison for the scalable estimator, so
no indexing structures are used to speed up the distance scan.
"""

from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisIndexSet,
    CoefficientVector,
    FunctionObservation,
    holdout_split,
    project_all,
    project_coefficients,
)

# held-out-by-fitting distances per bandwidth-scoring block (1 MiB of float64)
_CV_BLOCK_ELEMENTS = 1 << 17


def kernel_weight(u):
    """Epanechnikov profile max(0, 1 - u^2): symmetric, bounded support."""
    u = np.asarray(u, dtype=float)
    return np.maximum(0.0, 1.0 - u * u)


@dataclass
class LinearSmootherModel:
    """Stored projections of the full training set plus a bandwidth.

    Memory grows linearly with the number of training pairs; prediction
    scans all of them.
    """

    input_index_set: BasisIndexSet
    output_index_set: BasisIndexSet
    train_inputs: np.ndarray
    train_outputs: np.ndarray
    bandwidth: float

    def __post_init__(self):
        tin = np.asarray(self.train_inputs, dtype=float)
        tout = np.asarray(self.train_outputs, dtype=float)
        if tin.ndim != 2 or tout.ndim != 2 or tin.shape[0] != tout.shape[0]:
            raise ValueError("training coefficient matrices must align")
        if tin.shape[0] < 1:
            raise ValueError("at least one training pair required")
        if tin.shape[1] != len(self.input_index_set):
            raise ValueError("input coefficients do not match the input index set")
        if tout.shape[1] != len(self.output_index_set):
            raise ValueError("output coefficients do not match the output index set")
        if not (np.isfinite(tin).all() and np.isfinite(tout).all()):
            raise ValueError("training coefficients must be finite")
        if not 0 < self.bandwidth < np.inf:
            raise ValueError(f"bandwidth must be in (0, inf), found {self.bandwidth!r}")
        self.train_inputs = tin
        self.train_outputs = tout

    @property
    def training_count(self) -> int:
        return self.train_inputs.shape[0]


def lse_fit(
    dataset,
    input_index_set: BasisIndexSet,
    output_index_set: BasisIndexSet,
    bandwidth: float,
) -> LinearSmootherModel:
    """Project and store every training pair; nothing else is precomputed."""
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset must be non-empty")
    tin = project_all([p for p, _ in dataset], input_index_set)
    tout = project_all([q for _, q in dataset], output_index_set)
    return LinearSmootherModel(
        input_index_set=input_index_set,
        output_index_set=output_index_set,
        train_inputs=tin,
        train_outputs=tout,
        bandwidth=float(bandwidth),
    )


def lse_weights(model: LinearSmootherModel, input_coeffs: np.ndarray) -> np.ndarray:
    """Normalized kernel weights of the query against every training input;
    all-zero when the query is outside every kernel support."""
    diffs = model.train_inputs - input_coeffs
    dists = np.sqrt((diffs * diffs).sum(axis=1))
    w = kernel_weight(dists / model.bandwidth)
    total = w.sum()
    if total <= 0.0:
        return np.zeros_like(w)
    return w / total


def lse_predict(
    model: LinearSmootherModel, input_obs: FunctionObservation
) -> CoefficientVector:
    """Kernel-weighted average of training outputs; the all-zero vector when
    every training input is outside the kernel support."""
    a = project_coefficients(input_obs, model.input_index_set)
    w = lse_weights(model, a)
    return CoefficientVector(model.output_index_set, w @ model.train_outputs)


def _median_bandwidth_grid(train_inputs: np.ndarray, seed: int) -> tuple:
    # the median is taken as 1 when it is 0 (all sampled inputs equal)
    n = train_inputs.shape[0]
    take = min(n, 200)
    idx = np.random.default_rng(seed).choice(n, size=take, replace=False)
    sub = train_inputs[idx]
    diffs = sub[:, None, :] - sub[None, :, :]
    dists = np.sqrt((diffs * diffs).sum(axis=2))
    med = float(np.median(dists[np.triu_indices(take, k=1)])) if take > 1 else 0.0
    if med <= 0:
        med = 1.0
    return tuple(med * m for m in (0.25, 0.5, 1.0, 2.0, 4.0))


def lse_fit_cv(
    dataset,
    input_index_set: BasisIndexSet,
    output_index_set: BasisIndexSet,
    seed: int,
):
    """Pick the bandwidth on the seeded held-out split (``holdout_split``,
    the same protocol as the triple-basis hyperparameter search), then refit
    on all data. The search scores 0.25, 0.5, 1, 2 and 4 times the median
    pairwise distance of (up to 200 seeded-randomly chosen) training input
    coefficients.

    Returns (model, validation_mse).
    """
    dataset = list(dataset)
    if len(dataset) < 2:
        raise ValueError("bandwidth search needs at least two instances")
    tin = project_all([p for p, _ in dataset], input_index_set)
    tout = project_all([q for _, q in dataset], output_index_set)
    bandwidth_grid = _median_bandwidth_grid(tin, seed)
    val_idx, train_idx = holdout_split(len(dataset), seed)
    n_val = len(val_idx)

    fit_in, fit_out = tin[train_idx], tout[train_idx]
    fit_sq = (fit_in * fit_in).sum(axis=1)
    sse = np.zeros(len(bandwidth_grid))
    # held-out rows in blocks of bounded size: distances to the fitting split
    # are computed once per block, by one matrix product, for every bandwidth
    rows = max(1, _CV_BLOCK_ELEMENTS // len(train_idx))
    for start in range(0, n_val, rows):
        block = val_idx[start : start + rows]
        q = tin[block]
        sq = (q * q).sum(axis=1)[:, None] + fit_sq - 2.0 * (q @ fit_in.T)
        dists = np.sqrt(np.maximum(sq, 0.0))
        for j, bw in enumerate(bandwidth_grid):
            w = kernel_weight(dists / bw)
            total = w.sum(axis=1, keepdims=True)
            w = np.divide(w, total, out=np.zeros_like(w), where=total > 0.0)
            resid = w @ fit_out - tout[block]
            sse[j] += float((resid * resid).sum())

    # argmin keeps the first bandwidth on ties
    best = int(np.argmin(sse))
    mse, bw = float(sse[best]) / n_val, bandwidth_grid[best]
    model = LinearSmootherModel(
        input_index_set=input_index_set,
        output_index_set=output_index_set,
        train_inputs=tin,
        train_outputs=tout,
        bandwidth=bw,
    )
    return model, mse
