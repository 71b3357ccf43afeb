"""Independent reference computations, in plain NumPy.

Everything here is rebuilt from the documented definitions, never from
tribasis code:

- basis: phi_0(u) = 1, phi_k(u) = sqrt(2) cos(pi k u) on [0, 1], products
  over axes for multi-indices;
- projection: the sample mean of value * basis(point);
- features: sqrt(2 / D) cos(F a + b);
- the model file format described in the top-level README (both types);
- function-space squared distance by Parseval: the basis is orthonormal,
  so it is the squared coefficient distance on the union of index sets.

The checks in ``checks.py`` compare program outputs against these.
"""

from __future__ import annotations

import json

import numpy as np

SQRT2 = np.sqrt(2.0)


def ball_indices(dimension: int, radius: float) -> np.ndarray:
    """Non-negative multi-indices with Euclidean norm <= radius, in
    lexicographic order."""
    kmax = int(np.floor(radius))
    axes = np.meshgrid(*([np.arange(kmax + 1)] * dimension), indexing="ij")
    cand = np.stack([a.reshape(-1) for a in axes], axis=1)
    keep = (cand.astype(float) ** 2).sum(axis=1) <= radius * radius
    return cand[keep].astype(np.int64)


def design(points: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """(n, m) matrix of basis function m evaluated at point n."""
    points = np.asarray(points, dtype=float).reshape(len(points), -1)
    indices = np.asarray(indices, dtype=np.int64).reshape(len(indices), -1)
    out = np.ones((points.shape[0], indices.shape[0]))
    for axis in range(points.shape[1]):
        k = indices[:, axis]
        vals = SQRT2 * np.cos(np.pi * points[:, axis, None] * k[None, :])
        out *= np.where(k[None, :] == 0, 1.0, vals)
    return out


def project_all(observations, indices: np.ndarray) -> np.ndarray:
    """Projections of a list of (points, values) observations, one row each.

    Observations of equal size are projected together in one batch.
    """
    out = np.empty((len(observations), len(indices)))
    by_shape: dict = {}
    for i, (pts, _) in enumerate(observations):
        by_shape.setdefault(np.shape(pts), []).append(i)
    for rows in by_shape.values():
        for start in range(0, len(rows), 2048):
            chunk = rows[start : start + 2048]
            pts = np.stack([observations[i][0] for i in chunk])
            vals = np.stack([observations[i][1] for i in chunk])
            n, npts = pts.shape[0], pts.shape[1]
            phi = design(pts.reshape(n * npts, -1), indices).reshape(n, npts, -1)
            out[chunk] = np.einsum("ij,ijk->ik", vals, phi) / npts
    return out


def features(inputs: np.ndarray, frequencies: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Random cosine features sqrt(2/D) cos(F a + b), one row per input."""
    count = frequencies.shape[0]
    return np.sqrt(2.0 / count) * np.cos(np.atleast_2d(inputs) @ frequencies.T + phases)


def read_model(path) -> dict:
    """Parse a model file into plain arrays (either model type)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    model = {
        "type": doc["type"],
        "input_indices": np.asarray(doc["input_indices"], dtype=np.int64),
        "output_indices": np.asarray(doc["output_indices"], dtype=np.int64),
    }
    if doc["type"] == "triple-basis":
        model.update(
            frequencies=np.asarray(doc["frequencies"], dtype=float),
            phases=np.asarray(doc["phases"], dtype=float),
            psi=np.asarray(doc["psi"], dtype=float),
            ridge_lambda=float(doc["lambda"]),
        )
    elif doc["type"] == "linear-smoother":
        model.update(
            train_inputs=np.asarray(doc["train_inputs"], dtype=float),
            train_outputs=np.asarray(doc["train_outputs"], dtype=float),
            bandwidth=float(doc["bandwidth"]),
        )
    else:
        raise ValueError(f"unknown model type {doc['type']!r}")
    return model


def predict(model: dict, observations) -> np.ndarray:
    """Predicted output coefficients for (points, values) inputs."""
    inputs = project_all(observations, model["input_indices"])
    if model["type"] == "triple-basis":
        z = features(inputs, model["frequencies"], model["phases"])
        return z @ model["psi"]
    out = np.empty((inputs.shape[0], model["train_outputs"].shape[1]))
    for i, a in enumerate(inputs):
        dist = np.sqrt(((model["train_inputs"] - a) ** 2).sum(axis=1))
        u = dist / model["bandwidth"]
        w = np.maximum(0.0, 1.0 - u * u)
        total = w.sum()
        out[i] = 0.0 if total <= 0.0 else (w / total) @ model["train_outputs"]
    return out


def normal_equation_residual(model: dict, train_inputs, train_outputs) -> float:
    """Normwise backward error of psi in (Z^T Z + lambda I) psi = Z^T Y.

    Z holds the features of the reference input projections and Y the
    reference output projections, both rebuilt here. The value is
    ||(Z^T Z + lambda I) psi - Z^T Y|| / (||Z^T Z + lambda I|| ||psi|| + ||Z^T Y||)
    in Frobenius norms; a backward-stable solve leaves it near machine
    epsilon.
    """
    x = project_all(train_inputs, model["input_indices"])
    y = project_all(train_outputs, model["output_indices"])
    count = model["frequencies"].shape[0]
    gram = np.zeros((count, count))
    cross = np.zeros((count, y.shape[1]))
    for start in range(0, x.shape[0], 2048):
        z = features(x[start : start + 2048], model["frequencies"], model["phases"])
        gram += z.T @ z
        cross += z.T @ y[start : start + 2048]
    lhs = gram
    lhs[np.diag_indices(count)] += model["ridge_lambda"]
    psi = model["psi"]
    resid = np.linalg.norm(lhs @ psi - cross)
    scale = np.linalg.norm(lhs) * np.linalg.norm(psi) + np.linalg.norm(cross)
    return float(resid / scale)


def parseval_mse(pred, pred_indices, truth, truth_indices) -> float:
    """Mean over instances of the squared L2 distance between two series,
    as coefficient distance on the union of the two index sets."""
    pred = np.atleast_2d(pred)
    truth = np.atleast_2d(truth)
    keys = {tuple(k): i for i, k in enumerate(np.asarray(truth_indices).tolist())}
    for k in np.asarray(pred_indices).tolist():
        keys.setdefault(tuple(k), len(keys))
    full_pred = np.zeros((pred.shape[0], len(keys)))
    full_truth = np.zeros((truth.shape[0], len(keys)))
    full_truth[:, : truth.shape[1]] = truth
    cols = [keys[tuple(k)] for k in np.asarray(pred_indices).tolist()]
    full_pred[:, cols] = pred
    diff = full_pred - full_truth
    return float((diff * diff).sum(axis=1).mean())


def midpoint_grid(dimension: int, per_axis: int) -> np.ndarray:
    """Midpoint nodes, first axis varying slowest."""
    axis = (np.arange(per_axis) + 0.5) / per_axis
    mesh = np.meshgrid(*([axis] * dimension), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)
