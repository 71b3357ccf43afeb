"""Output checks: program outputs against the plain-NumPy reference.

Each check returns a ``Check`` that says whether it passed and what it
measured. The tolerances are stated here, once:

- ``PREDICT_RTOL``: predictions from the program and from the reference
  differ only by summation order in the projection, the feature matmul
  and the psi product. The allowance is relative to the size of the terms
  summed, so it does not depend on how much those sums cancel.
- ``EVAL_RTOL``: the midpoint rule with 1024 nodes per axis integrates
  products of basis functions of degree below 2048 exactly, so quadrature
  and Parseval MSE agree to round-off.
- ``NORMAL_EQ_TOL``: normwise backward error of psi; a backward-stable
  solve leaves it within a small multiple of machine epsilon times the
  dimension.
- ``MEAN_RATIO``: the triple-basis held-out MSE must be at most this share
  of the mean predictor's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

import reference as ref

PREDICT_RTOL = 1e-9
EVAL_RTOL = 1e-9
NORMAL_EQ_TOL = 1e-10
MEAN_RATIO = 0.5
WINDOW_ATOL = 1e-12
SYNTH_BOUND = 20.0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _term_scale(model: dict, observations) -> np.ndarray:
    """Per-row size of the terms summed in a prediction, for tolerances."""
    inputs = ref.project_all(observations, model["input_indices"])
    if model["type"] == "triple-basis":
        z = ref.features(inputs, model["frequencies"], model["phases"])
        return np.abs(z) @ np.abs(model["psi"]) + 1e-300
    return np.full((inputs.shape[0], model["train_outputs"].shape[1]),
                   np.abs(model["train_outputs"]).max())


def predictions(name: str, got: np.ndarray, model: dict, observations) -> Check:
    """Program predictions against predictions recomputed from the model file."""
    want = ref.predict(model, observations)
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return Check(name, False, f"shape {got.shape} != reference {want.shape}")
    err = float((np.abs(got - want) / _term_scale(model, observations)).max())
    return Check(name, err <= PREDICT_RTOL, f"max relative error {err:.3g} (tol {PREDICT_RTOL:g})")


def predict_file(name: str, path, model: dict, observations, grid: int) -> Check:
    """The ``predict`` output file: one line per input, coefficients and,
    with a grid, values on the midpoint grid."""
    with open(path, "r", encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    if len(docs) != len(observations):
        return Check(name, False, f"{len(docs)} lines for {len(observations)} inputs")
    coeffs = np.array([d["coefficients"] for d in docs], dtype=float)
    first = predictions(name, coeffs, model, observations)
    if not first.ok or not grid:
        return first
    want = ref.predict(model, observations)
    nodes = ref.midpoint_grid(model["output_indices"].shape[1], grid)
    phi = ref.design(nodes, model["output_indices"])
    values = np.array([d["values"] for d in docs], dtype=float)
    if values.shape != (len(docs), nodes.shape[0]):
        return Check(name, False, f"grid values shape {values.shape}")
    scale = np.abs(want) @ np.abs(phi).T + 1e-300
    err = float((np.abs(values - want @ phi.T) / scale).max())
    return Check(name, err <= PREDICT_RTOL,
                 f"{first.detail}; grid max relative error {err:.3g}")


def eval_mse(name: str, reported: float, model: dict, observations, truth,
             truth_indices) -> Check:
    """A reported quadrature MSE against the Parseval distance between the
    reference predictions and the given truth coefficients."""
    want = ref.parseval_mse(ref.predict(model, observations), model["output_indices"],
                            truth, truth_indices)
    err = abs(reported - want) / max(abs(want), 1e-300)
    return Check(name, err <= EVAL_RTOL,
                 f"reported {reported!r}, Parseval {want!r}, relative error {err:.3g}")


def normal_equations(name: str, model: dict, train_inputs, train_outputs) -> Check:
    err = ref.normal_equation_residual(model, train_inputs, train_outputs)
    return Check(name, err <= NORMAL_EQ_TOL, f"backward error {err:.3g} (tol {NORMAL_EQ_TOL:g})")


def beats_mean(name: str, heldout_mse: float, mean_mse: float) -> Check:
    ok = math.isfinite(heldout_mse) and heldout_mse <= MEAN_RATIO * mean_mse
    return Check(name, ok, f"held-out mse {heldout_mse:.6g} vs mean predictor "
                           f"{mean_mse:.6g} (ratio {heldout_mse / mean_mse:.3g}, "
                           f"limit {MEAN_RATIO:g})")


def _observations(docs, key):
    return [(np.asarray(d[key]["points"], dtype=float), np.asarray(d[key]["values"], dtype=float))
            for d in docs]


def window_file(name: str, path, windows: np.ndarray, transform: dict) -> Check:
    """``window`` output: consecutive windows paired forward, points at the
    window midpoints, values the benchmark's own rescaled windows.

    ``windows`` is (count, w) in the rescaled units, computed apart from
    the program; ``transform`` is the sidecar the program wrote.
    """
    with open(path, "r", encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    count, w = windows.shape
    if len(docs) != count - 1:
        return Check(name, False, f"{len(docs)} pairs, expected {count - 1}")
    mid = ((np.arange(w) + 0.5) / w)[:, None]
    worst = 0.0
    for key, offset in (("input", 0), ("output", 1)):
        obs = _observations(docs, key)
        pts = np.stack([p for p, _ in obs])
        vals = np.stack([v for _, v in obs])
        if pts.shape != (count - 1, w, 1):
            return Check(name, False, f"{key} points shape {pts.shape}")
        if vals.min() < 0.0 or vals.max() > 1.0:
            return Check(name, False, f"{key} values outside [0, 1]")
        worst = max(worst, float(np.abs(pts - mid).max()),
                    float(np.abs(vals - windows[offset:offset + count - 1]).max()))
    ok = worst <= WINDOW_ATOL and set(transform) == {"offset", "scale"}
    return Check(name, ok, f"{len(docs)} pairs of {w} points, max deviation {worst:.3g}")


def synth_file(name: str, path, instances: int, points: int, dim: int) -> Check:
    """``synth`` output: pair count, point count and dimension, points in
    the unit cube, finite values of bounded size."""
    with open(path, "r", encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    if len(docs) != instances:
        return Check(name, False, f"{len(docs)} pairs, expected {instances}")
    for key in ("input", "output"):
        obs = _observations(docs, key)
        pts = np.stack([p for p, _ in obs])
        vals = np.stack([v for _, v in obs])
        if pts.shape != (instances, points, dim) or vals.shape != (instances, points):
            return Check(name, False, f"{key} shapes {pts.shape}, {vals.shape}")
        if pts.min() < 0.0 or pts.max() > 1.0:
            return Check(name, False, f"{key} points outside the unit cube")
        if not np.all(np.isfinite(vals)) or np.abs(vals).max() > SYNTH_BOUND:
            return Check(name, False, f"{key} values not finite or beyond {SYNTH_BOUND:g}")
    return Check(name, True, f"{instances} pairs of {points} points in dimension {dim}")
