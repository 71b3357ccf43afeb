"""Synthetic function-to-function problems with exact ground truth.

Input functions are drawn as Gaussian coefficient sequences over a
smoothness ball and rescaled into the target ellipsoid. The input-output
map is a kernel smoother against a fixed set of anchor functions, applied
exactly in coefficient space (never through random features), so it serves
as an oracle: an estimator's error against it measures the whole pipeline.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .basis import (
    NOISY_EVALS,
    BasisIndexSet,
    CoefficientVector,
    FunctionObservation,
    SobolevSpec,
    enumerate_kappa_ball,
    reconstruct,
)
from .features import rbf_kernel

TRUTH_RADIUS = 16.0


@dataclass(frozen=True)
class SyntheticConfig:
    """Shape of one synthetic dataset draw."""

    input_spec: SobolevSpec
    output_spec: SobolevSpec
    noise_sd: float
    points_per_function: int
    instance_count: int
    seed: int

    def __post_init__(self):
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be non-negative")
        if self.points_per_function < 1 or self.instance_count < 1:
            raise ValueError("points_per_function and instance_count must be >= 1")


@dataclass
class MappingSpec:
    """A fixed kernel smoother from input functions to output coefficients.

    ``anchors`` is an (m, s) matrix of anchor-function coefficients over
    ``anchor_index_set``; ``weights`` is (r, m) with row alpha giving the
    mixing weights of output coefficient alpha; ``bounds`` caps each row's
    l1 norm, and the weighted bound sum must fit inside the output
    ellipsoid so generated outputs always satisfy the smoothness budget.
    """

    anchor_index_set: BasisIndexSet
    anchors: np.ndarray
    output_index_set: BasisIndexSet
    output_spec: SobolevSpec
    weights: np.ndarray
    bounds: np.ndarray
    sigma: float

    def __post_init__(self):
        anchors = np.asarray(self.anchors, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        bounds = np.asarray(self.bounds, dtype=float).reshape(-1)
        if anchors.ndim != 2 or anchors.shape[1] != len(self.anchor_index_set):
            raise ValueError("anchors must be (m, s) over the anchor index set")
        if weights.shape != (len(self.output_index_set), anchors.shape[0]):
            raise ValueError(
                "weights must be (output size, anchor count), got "
                f"{weights.shape}"
            )
        if bounds.shape[0] != len(self.output_index_set):
            raise ValueError("one bound per output index required")
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, found {self.sigma!r}")
        l1 = np.abs(weights).sum(axis=1)
        if np.any(l1 > bounds * (1.0 + 1e-12)):
            raise ValueError("weight rows exceed their l1 bounds")
        kap = self.output_spec.kappa(self.output_index_set.indices)
        budget = float((bounds * bounds * kap * kap).sum())
        if budget > self.output_spec.amplitude * (1.0 + 1e-12):
            raise ValueError(
                f"bound budget {budget:.6g} exceeds the output ellipsoid "
                f"amplitude {self.output_spec.amplitude:.6g}"
            )
        self.anchors = anchors
        self.weights = weights
        self.bounds = bounds


@functools.lru_cache(maxsize=16)
def _truth_ball(nu: tuple, gamma: tuple) -> BasisIndexSet:
    """The radius-16 smoothness ball of (nu, gamma), enumerated once and
    shared: it does not depend on the amplitude, and index sets are
    immutable."""
    return enumerate_kappa_ball(SobolevSpec(nu, gamma, 1.0), TRUTH_RADIUS)


def sample_input_function(spec: SobolevSpec, seed) -> CoefficientVector:
    """Draw one input function as coefficients over the smoothness ball of
    radius 16, with high-frequency damping and an ellipsoid rescale."""
    iset = _truth_ball(tuple(spec.nu), tuple(spec.gamma))
    kap = spec.kappa(iset.indices)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(len(iset)) / (1.0 + kap * kap)
    weight = float((coeffs * coeffs * kap * kap).sum())
    if weight > spec.amplitude:
        coeffs = coeffs * np.sqrt(spec.amplitude / weight)
    return CoefficientVector(iset, coeffs)


def make_mapping(
    input_spec: SobolevSpec,
    output_spec: SobolevSpec,
    n_anchors: int = 25,
    sigma: float = 1.0,
    seed: int = 0,
    budget_fraction: float = 0.9,
) -> MappingSpec:
    """Draw a random mapping: anchors from the input measure, weight rows
    scaled to l1 bounds that decay fast enough to spend only
    ``budget_fraction`` of the output ellipsoid amplitude."""
    if n_anchors < 1:
        raise ValueError("need at least one anchor")
    root = np.random.SeedSequence(seed)
    anchor_seeds = root.spawn(n_anchors)
    anchor_set = enumerate_kappa_ball(input_spec, TRUTH_RADIUS)
    anchors = np.vstack(
        [sample_input_function(input_spec, s).coefficients for s in anchor_seeds]
    )
    out_set = enumerate_kappa_ball(output_spec, TRUTH_RADIUS)
    kap = output_spec.kappa(out_set.indices)
    shape = (1.0 + kap * kap) ** -1.5
    denom = float((shape * shape * kap * kap).sum())
    scale = np.sqrt(budget_fraction * output_spec.amplitude / denom)
    bounds = scale * shape

    rng = np.random.default_rng(root.spawn(1)[0])
    raw = rng.uniform(-1.0, 1.0, size=(len(out_set), n_anchors))
    l1 = np.abs(raw).sum(axis=1, keepdims=True)
    weights = bounds[:, None] * raw / l1
    return MappingSpec(
        anchor_index_set=anchor_set,
        anchors=anchors,
        output_index_set=out_set,
        output_spec=output_spec,
        weights=weights,
        bounds=bounds,
        sigma=float(sigma),
    )


def apply_mapping(
    mapping: MappingSpec, input_coeffs: CoefficientVector
) -> CoefficientVector:
    """Exact output coefficients for one input function.

    Each output coefficient is a weighted sum of true kernel values between
    the input and the anchors, with distances taken in coefficient space.
    """
    if input_coeffs.index_set != mapping.anchor_index_set:
        raise ValueError("input coefficients do not live on the anchor index set")
    diffs = mapping.anchors - input_coeffs.coefficients
    dists = np.sqrt((diffs * diffs).sum(axis=1))
    kvals = rbf_kernel(dists, mapping.sigma)
    return CoefficientVector(mapping.output_index_set, mapping.weights @ kvals)


def generate_dataset(
    config: SyntheticConfig, mapping: MappingSpec, return_truth: bool = False
):
    """Generate observation pairs: noisy evaluations of sampled inputs and
    their mapped outputs at fresh uniform points.

    With ``return_truth`` the true coefficient vectors come back too, as
    (pairs, input_truths, output_truths).
    """
    if mapping.anchor_index_set.dimension != config.input_spec.dimension:
        raise ValueError("mapping and config disagree on input dimension")
    n = config.points_per_function
    l = config.input_spec.dimension
    k = config.output_spec.dimension
    pairs = []
    truths_in = []
    truths_out = []
    children = np.random.SeedSequence(config.seed).spawn(config.instance_count)
    for child in children:
        rng = np.random.default_rng(child)
        p = sample_input_function(config.input_spec, rng)
        q = apply_mapping(mapping, p)
        pts_in = rng.uniform(size=(n, l))
        y_in = reconstruct(p, pts_in) + config.noise_sd * rng.standard_normal(n)
        pts_out = rng.uniform(size=(n, k))
        y_out = reconstruct(q, pts_out) + config.noise_sd * rng.standard_normal(n)
        pairs.append(
            (
                FunctionObservation(NOISY_EVALS, pts_in, y_in),
                FunctionObservation(NOISY_EVALS, pts_out, y_out),
            )
        )
        if return_truth:
            truths_in.append(p)
            truths_out.append(q)
    if return_truth:
        return pairs, truths_in, truths_out
    return pairs
