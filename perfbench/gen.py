"""Workload inputs, generated in plain NumPy from the workload seed.

Nothing here imports tribasis, so the program under test receives the same
inputs on every commit. Every function is a finite cosine series, so its
noiseless coefficients are the exact truth for function-space errors.

The ground-truth map between input and output coefficients is drawn once
from ``MAP_SEED`` and does not depend on the workload seed: seeds change
which functions are drawn and the noise, not the task. That keeps the
cross-validated radii, and with them the amount of work, the same across
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reference import ball_indices, design

MAP_SEED = 14107414


# function pairs: noise of the evaluations, spectrum decay, gain of the map
NOISE_SD = 0.1
POWER = 0.3
GAIN = 1.5


@dataclass
class CoefficientMap:
    """b = scale * (1 + tanh(M a + c) / 2): a smooth map between coefficient
    vectors whose output magnitudes stay within [1/2, 3/2] of ``scale``, so
    every output keeps the same significant coefficients."""

    matrix: np.ndarray
    offset: np.ndarray
    scale: np.ndarray

    def __call__(self, a: np.ndarray) -> np.ndarray:
        return self.scale * (1.0 + 0.5 * np.tanh(a @ self.matrix.T + self.offset))


def spectrum(indices: np.ndarray, power: float, core: float, edge: float) -> np.ndarray:
    """Coefficient scale of each multi-index: 1 / (1 + |k|)^power inside the
    core radius, ``edge`` outside it.

    The edge coefficients sit near the projection noise level, so a
    cross-validated radius keeps them for about half of the functions and
    the average radius lands between the core radius and the next radius
    at which the ball gains indices, away from the boundaries where the
    chosen index set would change from seed to seed.
    """
    norm = np.sqrt((indices.astype(float) ** 2).sum(axis=1))
    return np.where(norm <= core, (1.0 + norm) ** -power, edge)


def draw_inputs(rng, scale: np.ndarray, count: int) -> np.ndarray:
    """Coefficients scale * sign * U(0.6, 1.4): random shape, fixed spectrum."""
    mags = rng.uniform(0.6, 1.4, size=(count, len(scale)))
    signs = rng.choice((-1.0, 1.0), size=(count, len(scale)))
    return scale * mags * signs


def make_map(scale: np.ndarray) -> CoefficientMap:
    """The fixed map for coefficient vectors of this length."""
    m = len(scale)
    rng = np.random.default_rng(MAP_SEED + 8 * m)
    matrix = GAIN * rng.standard_normal((m, m)) / np.sqrt(m)
    offset = 0.5 * rng.standard_normal(m)
    return CoefficientMap(matrix, offset, scale)


def observe(coeffs: np.ndarray, indices: np.ndarray, points: np.ndarray,
            noise: np.ndarray) -> np.ndarray:
    """Values of each row's series at its own points, plus noise.

    coeffs (N, m), points (N, n, d), noise (N, n); returns (N, n).
    """
    count, npts, dim = points.shape
    out = np.empty((count, npts))
    for start in range(0, count, 2048):
        stop = min(start + 2048, count)
        phi = design(points[start:stop].reshape(-1, dim), indices)
        phi = phi.reshape(stop - start, npts, -1)
        out[start:stop] = np.einsum("ijk,ik->ij", phi, coeffs[start:stop])
    return out + noise


@dataclass
class PairSet:
    """Noisy observations of N function pairs and their exact coefficients."""

    in_points: np.ndarray   # (N, n, l)
    in_values: np.ndarray   # (N, n)
    out_points: np.ndarray  # (N, n, k)
    out_values: np.ndarray  # (N, n)
    in_truth: np.ndarray    # (N, |in_indices|)
    out_truth: np.ndarray   # (N, |out_indices|)
    in_indices: np.ndarray
    out_indices: np.ndarray

    def take(self, rows) -> "PairSet":
        return PairSet(self.in_points[rows], self.in_values[rows],
                       self.out_points[rows], self.out_values[rows],
                       self.in_truth[rows], self.out_truth[rows],
                       self.in_indices, self.out_indices)

    def inputs(self):
        return list(zip(self.in_points, self.in_values))

    def outputs(self):
        return list(zip(self.out_points, self.out_values))


def function_pairs(seed: int, count: int, dim: int, core: float, edge: float,
                   radius: float, points: int) -> PairSet:
    """Random input series, mapped outputs, noisy evaluations at uniform
    points on [0, 1]^dim. Both live on the ball of the given radius."""
    indices = ball_indices(dim, radius)
    scale = spectrum(indices, POWER, core, edge)
    fmap = make_map(scale)
    rng = np.random.default_rng(seed)
    a = draw_inputs(rng, scale, count)
    b = fmap(a)
    in_pts = rng.uniform(size=(count, points, dim))
    out_pts = rng.uniform(size=(count, points, dim))
    in_vals = observe(a, indices, in_pts, NOISE_SD * rng.standard_normal((count, points)))
    out_vals = observe(b, indices, out_pts, NOISE_SD * rng.standard_normal((count, points)))
    return PairSet(in_pts, in_vals, out_pts, out_vals, a, b, indices, indices)


@dataclass
class Series:
    """A scalar series made of consecutive windows, each a cosine series
    whose coefficients follow from the previous window's."""

    values: np.ndarray        # (windows * window,)
    coefficients: np.ndarray  # (windows, |indices|), the noiseless windows
    indices: np.ndarray


# amplitude of the coefficient pairs (0, 1), (2, 3), (4, 5) of every window
SERIES_AMPLITUDES = np.array([1.0, 0.7, 0.5])


def window_series(seed: int, windows: int, window: int, noise_sd: float,
                  innovation: float) -> Series:
    """Coupled phase oscillators drawn as windows of a scalar series.

    Window t is sum_p rho_p (cos(phi_p) phi_{2p} + sin(phi_p) phi_{2p+1})
    over three coefficient planes p with fixed amplitudes rho_p, so every
    window has the same spectrum (indices 0..5, index 6 zero) and a
    cross-validated radius lands between 5 and 6. The phases follow
    phi_p(t+1) = phi_p(t) + omega_p + 0.8 sin(phi_{p+1}(t)) + innovation * z:
    a smooth, nonlinear, never-settling function of the previous window.
    Values are sampled at the midpoints (j + 0.5) / window with additive
    noise.
    """
    indices = ball_indices(1, 6.0)
    omega = np.array([0.9, 1.7, 2.3])
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2.0 * np.pi, 3)
    phases = np.empty((windows, 3))
    for t in range(windows):
        phases[t] = phase
        phase = (phase + omega + 0.8 * np.sin(np.roll(phase, -1))
                 + innovation * rng.standard_normal(3))
    coeffs = np.zeros((windows, len(indices)))
    coeffs[:, 0:6:2] = SERIES_AMPLITUDES * np.cos(phases)
    coeffs[:, 1:6:2] = SERIES_AMPLITUDES * np.sin(phases)
    mid = ((np.arange(window) + 0.5) / window)[:, None]
    clean = coeffs @ design(mid, indices).T
    values = clean + noise_sd * rng.standard_normal(clean.shape)
    return Series(values.reshape(-1), coeffs, indices)
