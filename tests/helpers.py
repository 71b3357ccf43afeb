"""Shared fixtures-by-hand for the test suite."""

import json

import numpy as np

from tribasis import (
    CoefficientVector,
    FunctionObservation,
    NOISY_EVALS,
    SobolevSpec,
    reconstruct,
    sample_input_function,
)


def observe(coeffs: CoefficientVector, n: int, noise_sd: float, rng) -> FunctionObservation:
    """Noisy evaluations of a coefficient-space function at uniform points."""
    d = coeffs.index_set.dimension
    pts = rng.uniform(size=(n, d))
    vals = reconstruct(coeffs, pts) + noise_sd * rng.standard_normal(n)
    return FunctionObservation(NOISY_EVALS, pts, vals)


def identity_task(root_seed: int, n_train: int, n_test: int, n_points: int,
                  noise_sd: float = 0.1, amplitude: float = 2.0):
    """Dataset whose output function equals its input function.

    Returns (train_pairs, test_pairs, test_truths).
    """
    spec = SobolevSpec(np.ones(1), np.ones(1), amplitude)
    children = np.random.SeedSequence(root_seed).spawn(n_train + n_test)
    pairs, truths = [], []
    for child in children:
        rng = np.random.default_rng(child)
        p = sample_input_function(spec, rng)
        pairs.append((observe(p, n_points, noise_sd, rng),
                      observe(p, n_points, noise_sd, rng)))
        truths.append(p)
    return pairs[:n_train], pairs[n_train:], truths[n_train:]


def cosine_basis_reference(alpha, x):
    """Basis functions recomputed from their closed form, independent of the
    library's evaluation kernels. alpha is a multi-index, x an (n, d) array."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.ones(x.shape[0])
    for axis, j in enumerate(alpha):
        if j > 0:
            out = out * (np.sqrt(2.0) * np.cos(np.pi * j * x[:, axis]))
    return out


def quadrature_mse(pred_matrix, pred_set, truth_matrix, truth_set,
                   points_per_axis=1024):
    """Mean (over instances) integrated squared error between reconstructed
    predictions and reconstructed truths, by the midpoint rule: the
    independent oracle for ``cli.coefficient_mse``. Exact for products of
    basis functions of degree below 2 * points_per_axis, at the cost of
    points_per_axis^d nodes per instance."""
    from tribasis.basis import design_matrix
    from tribasis.cli import midpoint_grid

    grid = midpoint_grid(pred_set.dimension, points_per_axis)
    pred_vals = design_matrix(pred_set, grid) @ pred_matrix.T
    truth_vals = design_matrix(truth_set, grid) @ truth_matrix.T
    diff = pred_vals - truth_vals
    return float((diff * diff).mean(axis=0).mean())


def select_truncation_reference(obs, candidate_radii, folds):
    """``basis.select_truncation`` scored one radius at a time: per fold and
    radius, fit the coefficients inside the radius on the training folds
    and sum the squared held-out errors; the first smallest sum wins."""
    from tribasis._accel import cosine_design
    from tribasis.basis import enumerate_ball

    radii = [float(t) for t in candidate_radii]
    superset = enumerate_ball(obs.dimension, radii[-1])
    phi = cosine_design(obs.points, superset.indices)
    sq_norm = (superset.indices.astype(float) ** 2).sum(axis=1)
    fold_id = np.arange(obs.n) % folds
    sse = np.zeros(len(radii))
    y = obs.values
    for k in range(folds):
        test, train = fold_id == k, fold_id != k
        for i, t in enumerate(radii):
            cols = sq_norm <= t * t
            c = y[train] @ phi[train][:, cols] / train.sum()
            sse[i] += ((phi[test][:, cols] @ c - y[test]) ** 2).sum()
    return radii[int(np.argmin(sse))]


def count_designs(monkeypatch):
    """Empty the projection design memo and wrap the design kernel that
    projection calls; returns the list of (points, indices) byte pairs the
    kernel is called with."""
    from tribasis import basis

    built = []
    kernel = basis.cosine_design

    def counting(points, indices):
        built.append((points.tobytes(), indices.tobytes()))
        return kernel(points, indices)

    monkeypatch.setattr(basis, "_design_memo", None)
    monkeypatch.setattr(basis, "cosine_design", counting)
    return built


def ingest_dataset_reference(path, require_output=True):
    """JSON-lines dataset read with the standard ``json`` module, one text
    line at a time: the reference that ``cli.ingest_dataset`` must equal on
    valid files. Returns (input, output) pairs, output None when absent."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            doc = json.loads(line)
            sides = []
            for key in ("input", "output"):
                obs = doc.get(key)
                if obs is None:
                    assert key == "output" and not require_output
                    sides.append(None)
                    continue
                sides.append(FunctionObservation(
                    obs.get("kind", NOISY_EVALS), obs["points"], obs.get("values")
                ))
            pairs.append(tuple(sides))
    return pairs


def write_json_reference(doc, path):
    """``doc`` written by ``json.dump``, which streams through the standard
    library's pure-Python encoder: the reference for the bytes of
    ``modelio.save_model``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
